#include "ipc/pipe.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "ipc/frame.h"

namespace cafc::ipc {
namespace {

/// Shared state of one direction of an in-process pair: a queue of
/// already-framed byte chunks plus the receiving side's decoder.
struct InProcessStream {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::string> chunks;  // raw frame bytes, send order
  FrameDecoder decoder;            // guarded by mutex (drained by Recv)
  bool closed = false;
};

class InProcessEndpoint : public MessagePipe {
 public:
  InProcessEndpoint(std::shared_ptr<InProcessStream> outgoing,
                    std::shared_ptr<InProcessStream> incoming)
      : outgoing_(std::move(outgoing)), incoming_(std::move(incoming)) {}

  ~InProcessEndpoint() override { Close(); }

  Status Send(std::string_view message) override {
    std::string frame;
    EncodeFrame(message, &frame);
    {
      std::lock_guard<std::mutex> lock(outgoing_->mutex);
      if (outgoing_->closed) {
        return Status::Unavailable("in-process pipe: closed");
      }
      outgoing_->chunks.push_back(std::move(frame));
    }
    outgoing_->cv.notify_one();
    return Status::OK();
  }

  Status Recv(std::string* message) override {
    std::unique_lock<std::mutex> lock(incoming_->mutex);
    while (true) {
      bool have_frame = false;
      Status status = incoming_->decoder.Next(message, &have_frame);
      if (!status.ok()) return status;
      if (have_frame) return Status::OK();
      if (!incoming_->chunks.empty()) {
        incoming_->decoder.Append(incoming_->chunks.front());
        incoming_->chunks.pop_front();
        continue;
      }
      if (incoming_->closed) {
        return Status::Unavailable("in-process pipe: closed");
      }
      incoming_->cv.wait(lock);
    }
  }

  void Close() override {
    for (const std::shared_ptr<InProcessStream>& stream :
         {outgoing_, incoming_}) {
      {
        std::lock_guard<std::mutex> lock(stream->mutex);
        stream->closed = true;
      }
      stream->cv.notify_all();
    }
  }

 private:
  std::shared_ptr<InProcessStream> outgoing_;
  std::shared_ptr<InProcessStream> incoming_;
};

class FdEndpoint : public MessagePipe {
 public:
  FdEndpoint(int read_fd, int write_fd)
      : read_fd_(read_fd), write_fd_(write_fd) {}

  ~FdEndpoint() override {
    Close();
    if (read_fd_ == write_fd_) ::close(read_fd_);  // see Close
  }

  Status Send(std::string_view message) override {
    std::string frame;
    EncodeFrame(message, &frame);
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("fd pipe: closed");
    }
    size_t written = 0;
    while (written < frame.size()) {
      const ssize_t n = ::write(write_fd_, frame.data() + written,
                                frame.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(std::string("fd pipe: write failed: ") +
                                   std::strerror(errno));
      }
      written += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Recv(std::string* message) override {
    std::lock_guard<std::mutex> lock(recv_mutex_);
    while (true) {
      bool have_frame = false;
      Status status = decoder_.Next(message, &have_frame);
      if (!status.ok()) return status;
      if (have_frame) return Status::OK();
      if (closed_.load(std::memory_order_acquire)) {
        return Status::Unavailable("fd pipe: closed");
      }
      char buffer[16384];
      const ssize_t n = ::read(read_fd_, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(std::string("fd pipe: read failed: ") +
                                   std::strerror(errno));
      }
      if (n == 0) {
        if (decoder_.buffered_bytes() > 0) {
          return Status::ParseError(
              "fd pipe: stream ended mid-frame (truncated)");
        }
        return Status::Unavailable("fd pipe: peer closed");
      }
      decoder_.Append(std::string_view(buffer, static_cast<size_t>(n)));
    }
  }

  void Close() override {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true)) return;
    // Shut the socket down: wakes a peer, and any local reader, blocked in
    // read. Its one fd stays open until the destructor, because closing it
    // under a concurrent Recv would let the number be reused mid-read.
    // Plain pipes ignore shutdown and rely on close's EOF.
    ::shutdown(read_fd_, SHUT_RDWR);
    if (write_fd_ != read_fd_) {
      ::close(read_fd_);
      ::close(write_fd_);
    }
  }

 private:
  int read_fd_;
  int write_fd_;
  std::atomic<bool> closed_{false};
  std::mutex send_mutex_;
  std::mutex recv_mutex_;
  FrameDecoder decoder_;  // guarded by recv_mutex_
};

}  // namespace

std::pair<std::unique_ptr<MessagePipe>, std::unique_ptr<MessagePipe>>
CreateInProcessPipePair() {
  auto a_to_b = std::make_shared<InProcessStream>();
  auto b_to_a = std::make_shared<InProcessStream>();
  return {std::make_unique<InProcessEndpoint>(a_to_b, b_to_a),
          std::make_unique<InProcessEndpoint>(b_to_a, a_to_b)};
}

std::unique_ptr<MessagePipe> CreateFdPipe(int read_fd, int write_fd) {
  return std::make_unique<FdEndpoint>(read_fd, write_fd);
}

Result<std::pair<std::unique_ptr<MessagePipe>, std::unique_ptr<MessagePipe>>>
CreateSocketPipePair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::Internal(std::string("socketpair failed: ") +
                            std::strerror(errno));
  }
  return std::make_pair(CreateFdPipe(fds[0], fds[0]),
                        CreateFdPipe(fds[1], fds[1]));
}

}  // namespace cafc::ipc
