#include "rdf/dictionary.h"

#include <mutex>
#include <utility>

#include "util/logging.h"

namespace kb {
namespace rdf {

Dictionary::Dictionary() = default;

Dictionary::Dictionary(std::shared_ptr<const TermCatalog> base)
    : base_(std::move(base)),
      base_size_(base_ != nullptr ? base_->catalog_size() : 0) {
  if (base_size_ > 0) {
    base_cache_ =
        std::make_unique<std::atomic<const Term*>[]>(base_size_ + 1);
    for (size_t i = 0; i <= base_size_; ++i) {
      base_cache_[i].store(nullptr, std::memory_order_relaxed);
    }
  }
}

Dictionary::~Dictionary() { DestroyBaseCache(); }

void Dictionary::DestroyBaseCache() {
  if (base_cache_ == nullptr) return;
  for (size_t i = 0; i <= base_size_; ++i) {
    delete base_cache_[i].load(std::memory_order_relaxed);
  }
  base_cache_.reset();
}

Dictionary::Dictionary(Dictionary&& other) noexcept {
  *this = std::move(other);
}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  if (this == &other) return *this;
  DestroyBaseCache();
  base_ = std::move(other.base_);
  base_size_ = other.base_size_;
  base_cache_ = std::move(other.base_cache_);
  terms_ = std::move(other.terms_);
  index_ = std::move(other.index_);
  other.base_size_ = 0;
  other.terms_.clear();
  other.index_.clear();
  return *this;
}

TermId Dictionary::Intern(const Term& term) {
  if (base_ != nullptr) {
    TermId id = base_->CatalogLookup(term);
    if (id != kInvalidTermId) return id;
  }
  std::string key = term.ToString();
  {
    std::shared_lock<std::shared_mutex> read_lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> write_lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  TermId id = static_cast<TermId>(base_size_ + terms_.size() + 1);
  terms_.push_back(term);
  index_.emplace(std::move(key), id);
  return id;
}

TermId Dictionary::Lookup(const Term& term) const {
  if (base_ != nullptr) {
    TermId id = base_->CatalogLookup(term);
    if (id != kInvalidTermId) return id;
  }
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  auto it = index_.find(term.ToString());
  return it == index_.end() ? kInvalidTermId : it->second;
}

const Term& Dictionary::term(TermId id) const {
  KB_CHECK(id != kInvalidTermId && id <= size()) << "bad term id " << id;
  if (id <= base_size_) return BaseTerm(id);
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  // Deque references are stable across push_back, so releasing the
  // lock before the caller dereferences is fine.
  return terms_[id - base_size_ - 1];
}

TermKind Dictionary::kind(TermId id) const {
  if (id != kInvalidTermId && id <= base_size_) {
    return base_->CatalogKind(id);
  }
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  KB_CHECK(id != kInvalidTermId && id - base_size_ <= terms_.size())
      << "bad term id " << id;
  return terms_[id - base_size_ - 1].kind();
}

const Term& Dictionary::BaseTerm(TermId id) const {
  const Term* cached = base_cache_[id].load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  const Term* fresh = new Term(base_->CatalogTerm(id));
  const Term* expected = nullptr;
  if (base_cache_[id].compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *expected;
}

size_t Dictionary::size() const {
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  return base_size_ + terms_.size();
}

}  // namespace rdf
}  // namespace kb
