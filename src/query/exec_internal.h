#ifndef KBFORGE_QUERY_EXEC_INTERNAL_H_
#define KBFORGE_QUERY_EXEC_INTERNAL_H_

#include "query/engine.h"
#include "query/plan.h"
#include "util/hash.h"

namespace kb {
namespace query {

/// Row-binding primitives shared by the Volcano row-at-a-time
/// operators (engine.cc) and the vector-at-a-time batch executor
/// (batch_exec.cc). Both execute the same CompiledPlan; only the unit
/// of work between operators differs.

/// Scan pattern for one join level: constants and probe slots resolved
/// against the current row.
inline rdf::TriplePattern ScanPattern(const CompiledScan& scan,
                                      const Row& row) {
  rdf::TriplePattern pattern;
  rdf::TermId* out[3] = {&pattern.s, &pattern.p, &pattern.o};
  const Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
  for (int i = 0; i < 3; ++i) {
    switch (accesses[i]->kind) {
      case Access::Kind::kConst:
        *out[i] = accesses[i]->constant;
        break;
      case Access::Kind::kProbe:
        *out[i] = row[static_cast<size_t>(accesses[i]->slot)];
        break;
      default:
        break;  // kBind/kCheck stay wild
    }
  }
  return pattern;
}

/// Applies one matched triple to the row: binds fresh slots, verifies
/// constants, probes and repeated variables. Returns false if the
/// triple does not extend the row.
inline bool BindRow(const CompiledScan& scan, const rdf::Triple& t,
                    Row* row) {
  const Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
  const rdf::TermId values[3] = {t.s, t.p, t.o};
  for (int i = 0; i < 3; ++i) {
    const Access& a = *accesses[i];
    switch (a.kind) {
      case Access::Kind::kConst:
        if (values[i] != a.constant) return false;
        break;
      case Access::Kind::kProbe:
      case Access::Kind::kCheck:
        if ((*row)[static_cast<size_t>(a.slot)] != values[i]) return false;
        break;
      case Access::Kind::kBind:
        (*row)[static_cast<size_t>(a.slot)] = values[i];
        break;
    }
  }
  return true;
}

struct RowHash {
  size_t operator()(const Row& row) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (rdf::TermId id : row) h = HashCombine(h, Mix64(id));
    return static_cast<size_t>(h);
  }
};

}  // namespace query
}  // namespace kb

#endif  // KBFORGE_QUERY_EXEC_INTERNAL_H_
