#include "lapx/service/ordering.hpp"

#include <utility>

namespace lapx::service {

void ResponseSequencer::enqueue(Service::Pending pending) {
  pending_.push_back(std::move(pending));
}

void ResponseSequencer::emit_head(std::string& out) {
  out += pending_.front().get();
  out += '\n';
  pending_.pop_front();
}

std::size_t ResponseSequencer::drain_ready(std::string& out) {
  std::size_t emitted = 0;
  while (!pending_.empty() && pending_.front().ready()) {
    emit_head(out);
    ++emitted;
  }
  return emitted;
}

bool ResponseSequencer::drain_one(std::string& out) {
  if (pending_.empty()) return false;
  emit_head(out);
  return true;
}

void ResponseSequencer::drain_all(std::string& out) {
  while (drain_one(out)) {
  }
}

}  // namespace lapx::service
