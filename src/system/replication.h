// Replicated items.
//
// §3 of the paper: "An item that is replicated at several sites can be
// viewed as a set of individual items, one for each site." This helper
// packages that view: a ReplicaSet names the per-site copies of one
// logical item, writes update every copy atomically (they ride one
// transaction, so the commit protocol keeps the copies identical), and
// reads consult one designated copy — with a consistency checker for
// tests and repair tooling.
//
// Polyvalues compose transparently: if a failure strands an update, every
// copy holds the same polyvalue, and outcome propagation reduces them all.
#ifndef SRC_SYSTEM_REPLICATION_H_
#define SRC_SYSTEM_REPLICATION_H_

#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/system/cluster.h"
#include "src/txn/txn_types.h"

namespace polyvalue {

class ReplicaSet {
 public:
  // The per-site key is "<logical>@<site>" so copies never collide even
  // when two replicas land on one site.
  ReplicaSet(std::string logical_name, std::vector<SiteId> sites);

  const std::string& logical_name() const { return logical_name_; }
  const std::vector<SiteId>& sites() const { return sites_; }
  size_t size() const { return sites_.size(); }

  // Key of the copy stored at `site`.
  ItemKey KeyAt(SiteId site) const;

  // Adds every copy to `spec`'s read and write sets.
  void AddToWriteSet(TxnSpec* spec) const;
  // Adds the copy at `preferred` to the read set. `preferred` must be
  // one of this set's sites (CHECK-failed otherwise) — the caller (a
  // read router, a region-aware workload) picks which replica serves.
  void AddToReadSet(TxnSpec* spec, SiteId preferred) const;

  // Builds a read-modify-write transaction that applies `update` to the
  // logical value and writes the result to every copy. The update sees
  // the first-listed copy (all copies are identical by construction).
  TxnSpec MakeUpdate(
      std::function<Result<Value>(const Value&)> update) const;

  // Builds a read-only transaction returning the logical value as seen
  // by the copy at `preferred`.
  TxnSpec MakeRead(SiteId preferred) const;

 private:
  std::string logical_name_;
  std::vector<SiteId> sites_;
};

// Seeds every copy with `value` (direct load, pre-traffic).
void LoadReplicated(SimCluster* cluster, const ReplicaSet& replicas,
                    const Value& value);

// True if every *reachable* copy holds the same (poly)value. Copies on
// crashed sites are skipped (they catch up through recovery).
bool ReplicasConsistent(SimCluster* cluster, const ReplicaSet& replicas);

}  // namespace polyvalue

#endif  // SRC_SYSTEM_REPLICATION_H_
