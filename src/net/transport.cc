#include "src/net/transport.h"

#include <algorithm>

#include "src/common/check.h"

namespace polyvalue {

std::pair<uint64_t, uint64_t> FaultPlan::LinkKey(SiteId a, SiteId b) {
  uint64_t x = a.value();
  uint64_t y = b.value();
  if (x > y) {
    std::swap(x, y);
  }
  return {x, y};
}

void FaultPlan::SetSiteDown(SiteId site, bool down) {
  MutexLock lock(&mu_);
  if (down) {
    down_sites_.insert(site.value());
  } else {
    down_sites_.erase(site.value());
  }
}

bool FaultPlan::IsSiteDown(SiteId site) const {
  MutexLock lock(&mu_);
  return down_sites_.count(site.value()) > 0;
}

void FaultPlan::SetLinkDown(SiteId a, SiteId b, bool down) {
  MutexLock lock(&mu_);
  if (down) {
    down_links_.insert(LinkKey(a, b));
  } else {
    down_links_.erase(LinkKey(a, b));
  }
}

void FaultPlan::SetOneWayDown(SiteId from, SiteId to, bool down) {
  MutexLock lock(&mu_);
  const std::pair<uint64_t, uint64_t> key{from.value(), to.value()};
  if (down) {
    down_one_way_.insert(key);
  } else {
    down_one_way_.erase(key);
  }
}

void FaultPlan::Partition(const std::vector<SiteId>& side_a,
                          const std::vector<SiteId>& side_b) {
  MutexLock lock(&mu_);
  for (SiteId a : side_a) {
    for (SiteId b : side_b) {
      down_links_.insert(LinkKey(a, b));
    }
  }
}

void FaultPlan::PartitionOneWay(const std::vector<SiteId>& from_side,
                                const std::vector<SiteId>& to_side) {
  MutexLock lock(&mu_);
  for (SiteId from : from_side) {
    for (SiteId to : to_side) {
      down_one_way_.insert({from.value(), to.value()});
    }
  }
}

void FaultPlan::HealLinks() {
  MutexLock lock(&mu_);
  down_links_.clear();
  down_one_way_.clear();
}

void FaultPlan::HealAll() {
  MutexLock lock(&mu_);
  down_links_.clear();
  down_one_way_.clear();
  down_sites_.clear();
}

void FaultPlan::SetDropProbability(double p) {
  POLYV_CHECK_GE(p, 0.0);
  POLYV_CHECK_LE(p, 1.0);
  MutexLock lock(&mu_);
  drop_probability_ = p;
}

void FaultPlan::SetDelayRange(double min_seconds, double max_seconds) {
  POLYV_CHECK_GE(min_seconds, 0.0);
  POLYV_CHECK_LE(min_seconds, max_seconds);
  MutexLock lock(&mu_);
  delay_min_ = min_seconds;
  delay_max_ = max_seconds;
}

void FaultPlan::SetLinkDelayRange(SiteId from, SiteId to,
                                  double min_seconds, double max_seconds) {
  POLYV_CHECK_GE(min_seconds, 0.0);
  POLYV_CHECK_LE(min_seconds, max_seconds);
  MutexLock lock(&mu_);
  link_delays_[{from.value(), to.value()}] = {min_seconds, max_seconds};
}

void FaultPlan::ClearLinkDelays() {
  MutexLock lock(&mu_);
  link_delays_.clear();
}

bool FaultPlan::ShouldDeliver(SiteId from, SiteId to, Rng* rng) const {
  MutexLock lock(&mu_);
  if (down_sites_.count(from.value()) || down_sites_.count(to.value())) {
    return false;
  }
  if (down_links_.count(LinkKey(from, to))) {
    return false;
  }
  if (down_one_way_.count({from.value(), to.value()})) {
    return false;
  }
  if (drop_probability_ > 0.0 && rng->NextBool(drop_probability_)) {
    return false;
  }
  return true;
}

double FaultPlan::SampleDelay(SiteId from, SiteId to, Rng* rng) const {
  MutexLock lock(&mu_);
  double lo = delay_min_;
  double hi = delay_max_;
  auto it = link_delays_.find({from.value(), to.value()});
  if (it != link_delays_.end()) {
    lo = it->second.first;
    hi = it->second.second;
  }
  if (hi <= lo) {
    return lo;
  }
  return lo + rng->NextDouble() * (hi - lo);
}

double FaultPlan::min_delay() const {
  MutexLock lock(&mu_);
  return delay_min_;
}

}  // namespace polyvalue
