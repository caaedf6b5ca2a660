#ifndef CAFC_IPC_MESSAGE_DEFS_H_
#define CAFC_IPC_MESSAGE_DEFS_H_

/// \brief The message descriptor of the shard RPC protocol.
///
/// Every method of the protocol is one row of this X-macro:
///
///   X(Name, wire_id, RequestType, ResponseType)
///
/// The table is the single source of truth — `message.h` expands it into
/// the MethodId enum and MethodName(); `shard_rpc.h` expands it into the
/// typed client bindings (one synchronous and one pipelined pair per
/// method) and the service dispatch switch. Adding a method means adding a
/// row and implementing the two message structs (the Stats payload is the
/// one ServerStats schema of `server_stats.h`); the bindings and the
/// dispatcher follow mechanically. Wire ids are part of the protocol —
/// append rows, never renumber.
#define CAFC_IPC_METHOD_LIST(X)                       \
  X(Classify, 1, ClassifyRequest, ClassifyResponse)   \
  X(Search, 2, SearchRequest, SearchResponse)         \
  X(Stats, 3, StatsRequest, ServerStats)              \
  X(Epoch, 4, EpochRequest, EpochResponse)

#endif  // CAFC_IPC_MESSAGE_DEFS_H_
