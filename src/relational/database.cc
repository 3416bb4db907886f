#include "relational/database.h"

#include <sstream>

#include "util/cancellation.h"
#include "util/common.h"

namespace sws::rel {

Database::Database(const Schema& schema) {
  for (const auto& r : schema.relations()) {
    relations_.emplace(r.name(), Relation(r.arity()));
  }
}

Database::Database(const Database& other) : relations_(other.relations_) {}

Database& Database::operator=(const Database& other) {
  if (this != &other) {
    relations_ = other.relations_;
    ++structural_gen_;
  }
  return *this;
}

Database::Database(Database&& other) noexcept
    : relations_(std::move(other.relations_)) {
  ++other.structural_gen_;
}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) {
    relations_ = std::move(other.relations_);
    ++structural_gen_;
    ++other.structural_gen_;
  }
  return *this;
}

void Database::Set(const std::string& name, Relation relation) {
  relations_.insert_or_assign(name, std::move(relation));
  ++structural_gen_;
}

const Relation& Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  SWS_CHECK(it != relations_.end()) << "no relation named " << name;
  return it->second;
}

Relation* Database::GetMutable(const std::string& name) {
  auto it = relations_.find(name);
  SWS_CHECK(it != relations_.end()) << "no relation named " << name;
  return &it->second;
}

Relation Database::GetOrEmpty(const std::string& name, size_t arity) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) return Relation(arity);
  return it->second;
}

bool Database::empty() const {
  for (const auto& [name, rel] : relations_) {
    if (!rel.empty()) return false;
  }
  return true;
}

std::pair<uint64_t, uint64_t> Database::Generation() const {
  uint64_t sum = 0;
  for (const auto& [name, rel] : relations_) sum += rel.generation();
  return {structural_gen_, sum};
}

std::set<Value> Database::ActiveDomain() const {
  return *ActiveDomainShared();
}

std::shared_ptr<const std::set<Value>> Database::ActiveDomainShared() const {
  const std::pair<uint64_t, uint64_t> key = Generation();
  std::lock_guard<std::mutex> lock(adom_mu_);
  if (adom_cache_ != nullptr && adom_key_ == key) return adom_cache_;
  auto adom = std::make_shared<std::set<Value>>();
  for (const auto& [name, rel] : relations_) rel.CollectValues(adom.get());
  // A cancelled build (governor deadline/fuel tripped inside
  // CollectValues) yields a partial domain: return it so the caller's
  // unwind has something well-formed to iterate, but never cache it —
  // the next un-cancelled caller must rebuild the real domain.
  if (sws::util::StepGateStopped()) return adom;
  adom_cache_ = std::move(adom);
  adom_key_ = key;
  return adom_cache_;
}

std::string Database::ToString() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, rel] : relations_) {
    if (!first) out << "\n";
    first = false;
    out << name << " = " << rel.ToString();
  }
  return out.str();
}

uint64_t Database::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, rel] : relations_) {
    uint64_t entry = std::hash<std::string>{}(name);
    entry = entry * 0x100000001b3ULL ^ static_cast<uint64_t>(rel.Hash());
    h = h * 0x100000001b3ULL ^ entry;
  }
  return h;
}

}  // namespace sws::rel
