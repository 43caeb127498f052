#include "lapx/service/ordering.hpp"

#include <utility>

namespace lapx::service {

void ResponseSequencer::enqueue(Service::Pending pending) {
  Entry e;
  e.kind = Entry::Kind::kLocal;
  e.local = std::move(pending);
  pending_.push_back(std::move(e));
}

void ResponseSequencer::enqueue_resolved(std::string response_line) {
  Entry e;
  e.kind = Entry::Kind::kResolved;
  e.line = std::move(response_line);
  pending_.push_back(std::move(e));
}

void ResponseSequencer::enqueue_deferred(std::function<int()> blocked_fd,
                                         std::function<std::string()> fetch) {
  Entry e;
  e.kind = Entry::Kind::kDeferred;
  e.blocked_fd = std::move(blocked_fd);
  e.fetch = std::move(fetch);
  pending_.push_back(std::move(e));
}

bool ResponseSequencer::head_ready() {
  const Entry& head = pending_.front();
  switch (head.kind) {
    case Entry::Kind::kLocal:
      return head.local.ready();
    case Entry::Kind::kResolved:
      return true;
    case Entry::Kind::kDeferred:
      head_fd_ = head.blocked_fd();
      return head_fd_ < 0;
  }
  return false;
}

void ResponseSequencer::emit_head(std::string& out) {
  Entry& head = pending_.front();
  switch (head.kind) {
    case Entry::Kind::kLocal:
      out += head.local.get();
      break;
    case Entry::Kind::kResolved:
      out += head.line;
      break;
    case Entry::Kind::kDeferred:
      out += head.fetch();
      break;
  }
  out += '\n';
  pending_.pop_front();
}

std::size_t ResponseSequencer::drain_ready(std::string& out) {
  head_fd_ = -1;
  std::size_t emitted = 0;
  while (!pending_.empty() && head_ready()) {
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
