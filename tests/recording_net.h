// Send-transcript recorder for byte-for-byte transcript comparisons: logs
// every client_send as (s, bytes) and every server_send as (k + s, bytes),
// in call order, then forwards to the wrapped network.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace spfe::testnet {

template <typename Base>
class RecordingNet : public Base {
 public:
  template <typename... Args>
  explicit RecordingNet(Args&&... args) : Base(std::forward<Args>(args)...) {}

  void client_send(std::size_t s, Bytes message) override {
    log.emplace_back(s, message);
    Base::client_send(s, std::move(message));
  }
  void server_send(std::size_t s, Bytes message) override {
    log.emplace_back(this->num_servers() + s, message);
    Base::server_send(s, std::move(message));
  }

  std::vector<std::pair<std::size_t, Bytes>> log;
};

}  // namespace spfe::testnet
