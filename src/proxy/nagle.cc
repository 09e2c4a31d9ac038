#include "proxy/nagle.h"

namespace canal::proxy {

void NagleBuffer::write(std::uint64_t bytes) {
  ++writes_accepted_;
  buffered_bytes_ += bytes;
  ++buffered_writes_;
  // Emit every full MSS immediately.
  while (buffered_bytes_ >= mss_) {
    const std::uint32_t writes = buffered_writes_;
    const std::uint64_t emit_bytes = mss_;
    buffered_bytes_ -= mss_;
    buffered_writes_ = buffered_bytes_ > 0 ? 1 : 0;
    emit(emit_bytes, writes);
  }
  if (buffered_bytes_ > 0 && !timer_.pending()) {
    timer_ = loop_.post(timeout_, [this] { flush(); });
  }
}

void NagleBuffer::flush() {
  timer_.cancel();
  if (buffered_bytes_ == 0) return;
  const std::uint64_t bytes = buffered_bytes_;
  const std::uint32_t writes = buffered_writes_;
  buffered_bytes_ = 0;
  buffered_writes_ = 0;
  emit(bytes, writes);
}

void NagleBuffer::emit(std::uint64_t bytes, std::uint32_t writes) {
  ++segments_emitted_;
  if (on_flush_) on_flush_(bytes, writes);
}

}  // namespace canal::proxy
