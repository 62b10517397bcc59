// The global lock-rank order: the single declared answer to "which
// mutex may be held while acquiring which".
//
// Every polyvalue::Mutex in src/ is declared with POLYV_MUTEX_RANK(r),
// which does two things at once:
//   * statically, it attaches ACQUIRED_AFTER(<rank boundary>) to the
//     declaration, tying the mutex into the ACQUIRED_BEFORE chain of
//     boundary sentinels below so Clang's thread-safety analysis and
//     tools/polyverify (rule LK01) can see the declared order; and
//   * at runtime, it brace-initialises the Mutex with its LockRank so
//     the POLYV_LOCKDEP validator (src/common/lockdep.h) can check the
//     observed acquisition order against the declared one.
//
// Ranks are a strict total order: a thread may only acquire a mutex of
// STRICTLY GREATER rank than every mutex it already holds. Lower rank =
// outermost. The gaps of 10 leave room to splice in new layers without
// renumbering (see "Adding a new mutex" in CONTRIBUTING.md).
//
// The chain of boundary sentinels is written out by hand (attributes
// cannot be generated back-to-front by the X-macro); polyverify LK01
// cross-checks that the hand-written chain, the enum values, and the
// per-mutex bindings all agree, so drift between them is a CI failure,
// not a silent divergence.
#ifndef SRC_COMMON_LOCK_RANK_H_
#define SRC_COMMON_LOCK_RANK_H_

#ifndef CAPABILITY
#error "Include src/common/thread_annotations.h, not lock_rank.h directly."
#endif

// Rank table. Rationale for the order (see docs/STATIC_ANALYSIS.md for
// the per-edge evidence):
//   kSvcAdmission      serving front door's admission state (token
//                      bucket + in-flight count, src/svc/admission.h).
//                      The admission decision gates every request
//                      before any cluster/engine lock exists, so it is
//                      the outermost lock in the system. Never held
//                      across Submit().
//   kSvcRetryBudget    the front door's shared retry budget; consulted
//                      between attempts, with nothing else held, but
//                      conceptually part of the serving layer above the
//                      client wait latch.
//   kClientWait        cluster SubmitAndWait's completion latch; held
//                      across Submit(), so it must precede everything
//                      below the serving layer.
//   kTransport         mem/tcp transport registries; Send() resolves
//                      sender and receiver and consults the fault plan
//                      while holding it, then releases it before it
//                      takes the mailbox/endpoint lock.
//   kTransportEndpoint per-destination mailbox / tcp endpoint.
//   kFaultPlan         drop/partition decisions, taken under Send().
//   kEngine            the txn engine's one protocol mutex; handlers
//                      append to the WAL, touch the store/outcome
//                      table, schedule timers and trace while holding
//                      it (side effects to peers go through the Outbox
//                      AFTER unlock, so kEngine < kTransport edges
//                      never form).
//   kPaxosEngine       the Paxos Commit engine's one protocol mutex;
//                      same discipline as kEngine (Outbox after
//                      unlock), ordered after it so a site hosting
//                      both legs can never invert them.
//   kScheduler         ThreadScheduler's timer map, one per site on
//                      ThreadCluster, so only a site's own engine and
//                      timer thread meet on it. ScheduleAfter and Cancel
//                      run under the engine mutex. ScheduleAfter holds it
//                      for one map insert, Cancel for a scan of the
//                      site's few pending timers; the worker is woken
//                      after unlock, and only for a deadline before its
//                      own next wake-up.
//   kStoreLockPlane    item-store lock plane (disjoint from shards by
//                      design, ordered before them for safety).
//   kStoreShard        item-store data shards (locked one at a time).
//   kOutcomeTable      durable outcome map.
//   kWal               WAL buffer/group-commit mutex; Append runs under
//                      the engine mutex.
//   kTrace             VectorTraceSink buffer; tracing happens under
//                      any of the above.
//   kLogger            logging serialisation; innermost of all.
#define POLYV_LOCK_RANK_LIST(X) \
  X(kSvcAdmission, 10)          \
  X(kSvcRetryBudget, 20)        \
  X(kClientWait, 30)            \
  X(kTransport, 50)             \
  X(kTransportEndpoint, 60)     \
  X(kFaultPlan, 70)             \
  X(kEngine, 90)                \
  X(kPaxosEngine, 95)           \
  X(kScheduler, 100)            \
  X(kStoreLockPlane, 110)       \
  X(kStoreShard, 120)           \
  X(kOutcomeTable, 130)         \
  X(kWal, 140)                  \
  X(kTrace, 150)                \
  X(kLogger, 160)

namespace polyvalue {

enum class LockRank : int {
  // Rank 0 is reserved for mutexes outside the declared order (test
  // locals constructed with the default Mutex()). polyverify LK01
  // rejects any Mutex *declaration in src/* without an explicit rank.
  kUnranked = 0,
#define POLYV_LOCK_RANK_ENUM_ENTRY_(name, value) name = value,
  POLYV_LOCK_RANK_LIST(POLYV_LOCK_RANK_ENUM_ENTRY_)
#undef POLYV_LOCK_RANK_ENUM_ENTRY_
};

constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "kUnranked";
#define POLYV_LOCK_RANK_NAME_ENTRY_(name, value) \
  case LockRank::name:                           \
    return #name;
      POLYV_LOCK_RANK_LIST(POLYV_LOCK_RANK_NAME_ENTRY_)
#undef POLYV_LOCK_RANK_NAME_ENTRY_
  }
  return "unknown";
}

constexpr const char* LockRankName(int rank) {
  return LockRankName(static_cast<LockRank>(rank));
}

namespace lockrank {

// Zero-size capability sentinels, one per rank, carrying the declared
// order as real ACQUIRED_BEFORE attributes. Declared innermost-first
// because an attribute argument must refer to an already-declared
// object; the resulting chain still reads
//   g_kSvcAdmission < g_kSvcRetryBudget < g_kClientWait < ... < g_kLogger.
class CAPABILITY("lock_rank") LockRankBoundary {};

inline LockRankBoundary g_kLogger;
inline LockRankBoundary g_kTrace ACQUIRED_BEFORE(g_kLogger);
inline LockRankBoundary g_kWal ACQUIRED_BEFORE(g_kTrace);
inline LockRankBoundary g_kOutcomeTable ACQUIRED_BEFORE(g_kWal);
inline LockRankBoundary g_kStoreShard ACQUIRED_BEFORE(g_kOutcomeTable);
inline LockRankBoundary g_kStoreLockPlane ACQUIRED_BEFORE(g_kStoreShard);
inline LockRankBoundary g_kScheduler ACQUIRED_BEFORE(g_kStoreLockPlane);
inline LockRankBoundary g_kPaxosEngine ACQUIRED_BEFORE(g_kScheduler);
inline LockRankBoundary g_kEngine ACQUIRED_BEFORE(g_kPaxosEngine);
inline LockRankBoundary g_kFaultPlan ACQUIRED_BEFORE(g_kEngine);
inline LockRankBoundary g_kTransportEndpoint ACQUIRED_BEFORE(g_kFaultPlan);
inline LockRankBoundary g_kTransport ACQUIRED_BEFORE(g_kTransportEndpoint);
inline LockRankBoundary g_kClientWait ACQUIRED_BEFORE(g_kTransport);
inline LockRankBoundary g_kSvcRetryBudget ACQUIRED_BEFORE(g_kClientWait);
inline LockRankBoundary g_kSvcAdmission ACQUIRED_BEFORE(g_kSvcRetryBudget);

}  // namespace lockrank
}  // namespace polyvalue

// Declares a Mutex's place in the global order. Expands to the static
// ACQUIRED_AFTER annotation plus the runtime rank initialiser:
//   mutable Mutex mu_ POLYV_MUTEX_RANK(kEngine);
#define POLYV_MUTEX_RANK(rank)                  \
  ACQUIRED_AFTER(::polyvalue::lockrank::g_##rank) { \
    ::polyvalue::LockRank::rank                 \
  }

#endif  // SRC_COMMON_LOCK_RANK_H_
