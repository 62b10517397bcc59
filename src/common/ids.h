// Strongly typed identifiers shared across the library.
//
// The paper's vocabulary: transactions are named by *transaction
// identifiers* (the variables of polyvalue conditions), data lives in
// *items*, items live at *sites*.
#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace polyvalue {

// CRTP strong integer wrapper: distinct identifier types do not convert
// into each other.
template <typename Tag>
class StrongId {
 public:
  constexpr StrongId() : value_(kInvalid) {}
  constexpr explicit StrongId(uint64_t value) : value_(value) {}

  constexpr uint64_t value() const { return value_; }
  constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr bool operator==(StrongId a, StrongId b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(StrongId a, StrongId b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(StrongId a, StrongId b) {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator>(StrongId a, StrongId b) {
    return a.value_ > b.value_;
  }
  friend constexpr bool operator<=(StrongId a, StrongId b) {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>=(StrongId a, StrongId b) {
    return a.value_ >= b.value_;
  }

  static constexpr uint64_t kInvalid = ~0ULL;

 private:
  uint64_t value_;
};

struct TxnIdTag {};
struct SiteIdTag {};

// Identifier of one transaction; the boolean variables in polyvalue
// conditions range over these.
using TxnId = StrongId<TxnIdTag>;

// Identifier of one site (one autonomous storage node).
using SiteId = StrongId<SiteIdTag>;

// Items are addressed by string keys ("accounts/alice"); cheap and clear
// in examples and tests. The store interns them internally.
using ItemKey = std::string;

// Transaction ids are allocated as (coordinator site << kTxnSiteShift) |
// sequence, so any site can route an outcome inquiry from the id alone.
// The formatter decodes that for readability: "T3.7" = 7th transaction
// coordinated by site 3.
inline constexpr int kTxnSiteShift = 40;

inline std::ostream& operator<<(std::ostream& os, TxnId id) {
  if (!id.valid()) {
    return os << "T?";
  }
  const uint64_t site = id.value() >> kTxnSiteShift;
  const uint64_t seq = id.value() & ((1ULL << kTxnSiteShift) - 1);
  if (site != 0) {
    return os << "T" << site << "." << seq;
  }
  return os << "T" << id.value();
}

inline std::ostream& operator<<(std::ostream& os, SiteId id) {
  if (!id.valid()) {
    return os << "S?";
  }
  return os << "S" << id.value();
}

inline std::string ToString(TxnId id) {
  if (!id.valid()) {
    return "T?";
  }
  const uint64_t site = id.value() >> kTxnSiteShift;
  const uint64_t seq = id.value() & ((1ULL << kTxnSiteShift) - 1);
  // Built with append: GCC 12 flags `"literal" + std::to_string(..)`
  // with a false -Wrestrict at -O3.
  std::string out = "T";
  if (site != 0) {
    out.append(std::to_string(site)).append(".").append(std::to_string(seq));
  } else {
    out.append(std::to_string(id.value()));
  }
  return out;
}

inline std::string ToString(SiteId id) {
  std::string out = "S";
  out.append(id.valid() ? std::to_string(id.value()) : "?");
  return out;
}

}  // namespace polyvalue

namespace std {

template <>
struct hash<polyvalue::TxnId> {
  size_t operator()(polyvalue::TxnId id) const noexcept {
    return std::hash<uint64_t>()(id.value());
  }
};

template <>
struct hash<polyvalue::SiteId> {
  size_t operator()(polyvalue::SiteId id) const noexcept {
    return std::hash<uint64_t>()(id.value());
  }
};

}  // namespace std

#endif  // SRC_COMMON_IDS_H_
