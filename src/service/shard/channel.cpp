#include "lapx/service/shard/channel.hpp"

#include <utility>

namespace lapx::service::shard {

ShardChannel::ShardChannel(std::size_t shard, const std::string& endpoint,
                           const Client::Retry& retry)
    : shard_(shard) {
  try {
    client_.emplace(Client::connect_unix(endpoint, retry));
  } catch (const std::exception&) {
    broken_ = true;
  }
}

bool ShardChannel::send(const std::string& line) {
  if (broken_) return false;
  try {
    client_->send(line);
    return true;
  } catch (const std::exception&) {
    broken_ = true;
    return false;
  }
}

bool ShardChannel::recv_line(std::string& out) {
  if (broken_) return false;
  try {
    out = client_->recv_line();
    return true;
  } catch (const std::exception&) {
    broken_ = true;
    return false;
  }
}

int ShardChannel::blocked_fd() {
  if (broken_) return -1;
  try {
    return client_->poll_line() ? -1 : client_->fd();
  } catch (const std::exception&) {
    broken_ = true;
    return -1;
  }
}

ShardClientSet::ShardClientSet(std::vector<std::string> endpoints,
                               Client::Retry retry)
    : endpoints_(std::move(endpoints)),
      retry_(retry),
      live_(endpoints_.size()) {}

ShardChannel* ShardClientSet::channel(std::size_t shard) {
  auto& slot = live_[shard];
  if (slot != nullptr && slot->ok()) return slot.get();
  if (slot != nullptr) retired_.push_back(std::move(slot));
  slot = std::make_unique<ShardChannel>(shard, endpoints_[shard], retry_);
  return slot.get();
}

}  // namespace lapx::service::shard
