#include "net/replica_server.h"

#include <utility>

#include "net/wire.h"

namespace gf::net {

namespace {

std::string ErrorResponse(uint64_t request_id, Status status) {
  QueryBatchResponse response;
  response.request_id = request_id;
  response.status = std::move(status);
  return EncodeQueryResponse(response);
}

}  // namespace

ReplicaServer::ReplicaServer(const FingerprintStore& store, UserId user_base,
                             ThreadPool* pool,
                             const obs::PipelineContext* obs)
    : user_base_(user_base),
      engine_(store, pool, obs),
      requests_(obs::CounterOrNull(obs, "net.server.requests")),
      bad_frames_(obs::CounterOrNull(obs, "net.server.bad_frames")) {}

std::string ReplicaServer::Handle(std::string_view request_frame) const {
  if (requests_ != nullptr) requests_->Add(1);
  auto request = DecodeQueryRequest(request_frame);
  if (!request.ok()) {
    if (bad_frames_ != nullptr) bad_frames_->Add(1);
    // The request id is inside the frame we could not trust: answer
    // with id 0; the coordinator rejects the mismatch as corruption
    // either way.
    return ErrorResponse(0, request.status());
  }
  auto scored =
      engine_.QueryBatchPacked(request->num_bits, request->query_words,
                               request->query_cards, request->k);
  if (!scored.ok()) {
    return ErrorResponse(request->request_id, scored.status());
  }
  QueryBatchResponse response;
  response.request_id = request->request_id;
  response.results = std::move(*scored);
  // Local rows -> global ids; the coordinator checks they land inside
  // this shard's range.
  for (auto& neighbors : response.results) {
    for (ScoredNeighbor& neighbor : neighbors) neighbor.id += user_base_;
  }
  return EncodeQueryResponse(response);
}

}  // namespace gf::net
