// Replica-side request handling (DESIGN.md §14): one shard's rows
// served through ScanQueryEngine's packed batch core.
//
// A ReplicaServer owns no socket — Handle() maps one request frame to
// one response frame and is plugged into whatever carries frames:
// FakeTransport::RegisterHandler in the failure-matrix tests,
// PosixServer in `gfk serve --replica`. Ids in responses are global
// (user_base + local row), so the coordinator merges shard answers
// without any further translation.
//
// Every failure mode stays inside the protocol: an undecodable request
// is answered with a kCorruption-status response (request id 0 — the
// real one is unknowable), an engine error (a mismatched bit length
// among them) with its status and the request's id. The counters:
//
//   net.server.requests    frames handled (good or bad)
//   net.server.bad_frames  frames rejected by DecodeQueryRequest

#ifndef GF_NET_REPLICA_SERVER_H_
#define GF_NET_REPLICA_SERVER_H_

#include <string>
#include <string_view>

#include "common/thread_pool.h"
#include "core/fingerprint_store.h"
#include "knn/query.h"
#include "obs/pipeline_context.h"

namespace gf::net {

class ReplicaServer {
 public:
  /// Serves `store`'s rows as global users [user_base, user_base +
  /// store.num_users()). The store (and pool/obs, when given) must
  /// outlive the server.
  explicit ReplicaServer(const FingerprintStore& store, UserId user_base,
                         ThreadPool* pool = nullptr,
                         const obs::PipelineContext* obs = nullptr);

  /// One request frame in, one response frame out. Thread-compatible
  /// with concurrent calls (the engine is const; counters are atomic).
  std::string Handle(std::string_view request_frame) const;

  UserId user_base() const { return user_base_; }

 private:
  UserId user_base_;
  ScanQueryEngine engine_;
  obs::Counter* requests_ = nullptr;
  obs::Counter* bad_frames_ = nullptr;
};

}  // namespace gf::net

#endif  // GF_NET_REPLICA_SERVER_H_
