#include "src/system/replication.h"

#include <optional>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace polyvalue {

ReplicaSet::ReplicaSet(std::string logical_name, std::vector<SiteId> sites)
    : logical_name_(std::move(logical_name)), sites_(std::move(sites)) {
  POLYV_CHECK(!sites_.empty());
}

ItemKey ReplicaSet::KeyAt(SiteId site) const {
  return StrCat(logical_name_, "@", site.value());
}

void ReplicaSet::AddToWriteSet(TxnSpec* spec) const {
  for (SiteId site : sites_) {
    spec->ReadWrite(KeyAt(site), site);
  }
}

void ReplicaSet::AddToReadSet(TxnSpec* spec, SiteId preferred) const {
  bool member = false;
  for (SiteId site : sites_) {
    member = member || site == preferred;
  }
  POLYV_CHECK(member);
  spec->Read(KeyAt(preferred), preferred);
}

TxnSpec ReplicaSet::MakeUpdate(
    std::function<Result<Value>(const Value&)> update) const {
  TxnSpec spec;
  AddToWriteSet(&spec);
  const ItemKey primary = KeyAt(sites_.front());
  std::vector<ItemKey> copy_keys;
  copy_keys.reserve(sites_.size());
  for (SiteId site : sites_) {
    copy_keys.push_back(KeyAt(site));
  }
  spec.Logic([primary, copy_keys = std::move(copy_keys),
              update = std::move(update)](const TxnReads& reads) {
    const Result<Value> next = update(reads.at(primary));
    if (!next.ok()) {
      return TxnEffect::Abort(next.status().message());
    }
    TxnEffect e;
    for (const ItemKey& key : copy_keys) {
      e.writes[key] = next.value();
    }
    e.output = next.value();
    return e;
  });
  return spec;
}

TxnSpec ReplicaSet::MakeRead(SiteId preferred) const {
  TxnSpec spec;
  AddToReadSet(&spec, preferred);
  const ItemKey copy = KeyAt(preferred);
  spec.Logic([copy](const TxnReads& reads) {
    TxnEffect e;
    e.output = reads.at(copy);
    return e;
  });
  return spec;
}

void LoadReplicated(SimCluster* cluster, const ReplicaSet& replicas,
                    const Value& value) {
  for (SiteId site : replicas.sites()) {
    cluster->site(site.value() - 1).Load(replicas.KeyAt(site), value);
  }
}

bool ReplicasConsistent(SimCluster* cluster, const ReplicaSet& replicas) {
  std::optional<PolyValue> reference;
  for (SiteId site : replicas.sites()) {
    Site& s = cluster->site(site.value() - 1);
    if (s.crashed()) {
      continue;
    }
    const Result<PolyValue> copy = s.Peek(replicas.KeyAt(site));
    if (!copy.ok()) {
      return false;
    }
    if (!reference.has_value()) {
      reference = copy.value();
    } else if (!(*reference == copy.value())) {
      return false;
    }
  }
  return true;
}

}  // namespace polyvalue
