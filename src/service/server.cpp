#include "lapx/service/server.hpp"

#include "lapx/service/net.hpp"

namespace lapx::service {

Server::Server(Service& service, Options opt)
    : service_(service),
      front_(std::make_unique<net::FrontEnd>(opt.endpoint, opt.listen_backlog,
                                             opt.max_line_bytes,
                                             opt.max_pipeline)) {}

// net::FrontEnd's destructor stops and joins the connection threads.
Server::~Server() = default;

void Server::serve_forever() {
  front_->serve_forever([this](int fd) {
    front_->serve_connection(
        fd, [this](const std::string& line, ResponseSequencer& seq,
                   const BatchScheduler::Notify& wake) {
          seq.enqueue(service_.submit(line, wake));
          return service_.shutdown_requested();
        });
  });
}

void Server::stop() { front_->stop(); }

int Server::bound_tcp_port() const { return front_->bound_tcp_port(); }

}  // namespace lapx::service
