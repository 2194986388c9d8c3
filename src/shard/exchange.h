#ifndef IOLAP_SHARD_EXCHANGE_H_
#define IOLAP_SHARD_EXCHANGE_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace iolap {

class ShardSet;

/// What a message carries between the coordinator and a shard. The engine
/// exchanges exactly three kinds (docs/INTERNALS.md §11):
///  - kDeltaRoute: the coordinator shuffles a batch's delta rows to their
///    owner shards before the shard-parallel evaluate phase;
///  - kPartialAggregate: a shard returns its evaluated per-row payloads to
///    the coordinator for the serial apply phase;
///  - kBroadcastLineage: after publication the coordinator broadcasts the
///    block's updated output relation to every shard (the lineage replica
///    downstream joins read).
enum class ExchangeKind : uint8_t {
  kDeltaRoute,
  kPartialAggregate,
  kBroadcastLineage,
};

const char* ExchangeKindName(ExchangeKind kind);

/// One message on the wire. `payload_bytes` is the serialized payload size
/// the sender meters (rows, partial aggregates, or a relation snapshot);
/// `checksum` covers the header fields and the payload content hash, so a
/// corrupted delivery is rejected by the receiver and retried.
struct ExchangeMessage {
  ExchangeKind kind = ExchangeKind::kDeltaRoute;
  int batch = 0;
  /// Endpoints: a shard id in [0, S), or kCoordinator.
  int src = 0;
  int dst = 0;
  uint64_t payload_bytes = 0;
  /// Content hash of the payload (sender-computed).
  uint64_t payload_hash = 0;
  uint64_t checksum = 0;

  static constexpr int kCoordinator = -1;

  /// Serialized header size: kind + batch + endpoints + checksum.
  static constexpr uint64_t kHeaderBytes = 25;

  /// The shard-side endpoint (whichever of src/dst is not the
  /// coordinator); the failpoint detail for this message is
  /// `batch * kMaxShards + ShardEndpoint()`.
  int ShardEndpoint() const;

  uint64_t WireBytes() const { return kHeaderBytes + payload_bytes; }
};

/// Header+payload checksum (order-sensitive HashCombine chain).
uint64_t ExchangeChecksum(const ExchangeMessage& msg);

/// Cumulative traffic and fault counters. Wire bytes count every attempt —
/// a retransmitted message pays its full size again — so the shuffle/
/// broadcast bytes in QueryMetrics reflect what a lossy link actually
/// carried.
struct ExchangeCounters {
  uint64_t messages = 0;        ///< Delivered messages.
  uint64_t attempts = 0;        ///< Send attempts (>= messages).
  uint64_t retries = 0;         ///< Re-sends after a drop or corruption.
  uint64_t checksum_failures = 0;
  uint64_t timeouts = 0;        ///< Dropped messages that hit the deadline.
  uint64_t wire_bytes = 0;      ///< Header + payload, every attempt.
  uint64_t payload_bytes = 0;   ///< Payload of delivered messages only.
  uint64_t backoff_virtual_ms = 0;  ///< Recorded (never slept) backoff.
  uint64_t shard_deaths = 0;    ///< Shards declared dead on exhaustion.
};

/// The explicit seam every byte between shards crosses. In-process today
/// (delivery is a method call on the destination ShardState), but built
/// robust from day one: per-message checksums, bounded-backoff retry with
/// a per-message deadline, and a degradation path — a message that
/// exhausts its attempts declares the shard endpoint dead, and the
/// controller rebuilds that shard's state from the last consistent batch
/// (docs/INTERNALS.md §11).
///
/// Fault injection: the exchange-message-corrupt / exchange-message-drop
/// failpoints fire per attempt with detail `batch * kMaxShards + shard`,
/// so a schedule can target one message of one shard of one batch. All
/// exchange failures are failpoint-driven, so the recovery they trigger is
/// an *injected* rollback (unfrozen, bit-identical replay).
///
/// Not thread-safe by design: Ship is only called from the serial
/// coordinator sections of BlockExecutor (never from pool eval tasks).
class ExchangeLayer {
 public:
  ExchangeLayer(ShardSet* shards, int max_attempts);

  /// Sends one message, retrying up to `max_attempts` times under
  /// (virtual) bounded exponential backoff. On delivery returns the total
  /// wire bytes spent, including retransmissions, and — for a shard-bound
  /// message — absorbs the payload into the destination ShardState. On
  /// exhaustion the shard endpoint is declared dead and an error returns.
  [[nodiscard]] Result<uint64_t> Ship(ExchangeKind kind, int batch, int src,
                                      int dst, uint64_t payload_bytes,
                                      uint64_t payload_hash);

  /// Declares shard k dead outside the retry path (shard-eval-fault).
  void KillShard(size_t shard);

  /// True when shard k has been declared dead since the last ReviveAll.
  bool IsDead(size_t shard) const;
  bool AnyDead() const;

  /// Recovery rebuilt every shard's state from the last consistent batch;
  /// all shards are live again. Counters are cumulative and survive.
  void ReviveAll();

  const ExchangeCounters& counters() const { return counters_; }
  int max_attempts() const { return max_attempts_; }

 private:
  ShardSet* shards_;  // not owned
  int max_attempts_;
  ExchangeCounters counters_;
};

}  // namespace iolap

#endif  // IOLAP_SHARD_EXCHANGE_H_
