#include "src/storage/journal.h"

namespace halfmoon::storage {

uint64_t AppendFrame(BlockBuffer* buffer, FrameType type, std::string_view payload) {
  char header[kFrameHeaderBytes];
  StoreLE(header, static_cast<uint32_t>(payload.size()), 4);
  header[4] = static_cast<char>(type);
  buffer->Append(std::string_view(header, kFrameHeaderBytes));
  buffer->Append(payload);
  return buffer->tail();
}

void ReplayFrames(const BlockBuffer& buffer, uint64_t from, uint64_t upto,
                  const std::function<void(FrameType, Cursor)>& fn) {
  uint64_t off = from;
  while (off + kFrameHeaderBytes <= upto) {
    Cursor header(buffer.ReadDurable(off, kFrameHeaderBytes));
    uint64_t len = header.U32();
    FrameType type = static_cast<FrameType>(header.U8());
    if (off + kFrameHeaderBytes + len > upto) break;  // Torn tail frame.
    fn(type, Cursor(buffer.ReadDurable(off + kFrameHeaderBytes, len)));
    off += kFrameHeaderBytes + len;
  }
}

}  // namespace halfmoon::storage
