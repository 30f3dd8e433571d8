#include "net/packet.hpp"

#include <algorithm>

namespace switchml::net {

namespace {
// RDMA-UC message framing: SwitchML header + payload + telemetry as ONE
// message, segmented by the NIC into path-MTU chunks that each pay the
// RoCE per-segment framing. INT still composes: on-wire telemetry grows
// the message (and can spill it into one more segment), exactly as the
// UDP path charges it inside the packet.
std::uint32_t rdma_message_wire_bytes(std::uint32_t payload) {
  const std::uint32_t nseg = (payload + kRdmaMtuBytes - 1) / kRdmaMtuBytes;
  return payload + std::max<std::uint32_t>(nseg, 1) * kRdmaSegmentHeaderBytes;
}
} // namespace

std::uint32_t Packet::wire_bytes() const {
  switch (kind) {
    case PacketKind::SmlUpdate:
    case PacketKind::SmlResult:
    case PacketKind::SmlRescue:
      if (transport == TransportKind::kRdmaUc)
        return rdma_message_wire_bytes(kRdmaAppHeaderBytes + elem_count * elem_bytes +
                                       int_wire_bytes());
      return kSmlHeaderBytes + elem_count * elem_bytes + int_wire_bytes();
    case PacketKind::SmlSyncQuery:
    case PacketKind::SmlSyncResponse:
      // Headers only. UDP: minimum Ethernet frame; RDMA: a one-segment
      // message carrying just the SwitchML header.
      if (transport == TransportKind::kRdmaUc)
        return rdma_message_wire_bytes(kRdmaAppHeaderBytes);
      return kAckWireBytes;
    case PacketKind::Segment:
      return kSegmentHeaderBytes + seg_len;
    case PacketKind::Ack:
      return kAckWireBytes;
    case PacketKind::Raw:
      return std::max<std::uint32_t>(kAckWireBytes, kSegmentHeaderBytes + seg_len);
  }
  return kAckWireBytes;
}

std::uint64_t Packet::compute_checksum() const {
  // FNV-style xor-multiply over packed 64-bit words: the protocol-relevant
  // header fields (each inside one word) and the payload length, then the
  // payload two int32 values per word. For a fixed word each step is a
  // bijection of h (xor, then multiply by an odd constant), so a change
  // confined to one word always changes the result.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t w) { h = (h ^ w) * 0x9e3779b97f4a7c15ull; };
  const auto u32 = [](std::int32_t v) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  };
  mix(static_cast<std::uint64_t>(kind) | std::uint64_t{wid} << 8 | std::uint64_t{ver} << 24 |
      std::uint64_t{job} << 32 | std::uint64_t{sync_seen} << 40);
  mix(idx | std::uint64_t{elem_count} << 32);
  mix(off);
  mix(epoch | std::uint64_t{sync_count0} << 32);
  mix(sync_count1 | static_cast<std::uint64_t>(values.size()) << 32);
  mix(sync_off0);
  mix(sync_off1);
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) mix(u32(values[i]) | u32(values[i + 1]) << 32);
  if (i < n) mix(u32(values[i]));
  return h;
}

const char* to_string(PacketKind k) {
  switch (k) {
    case PacketKind::SmlUpdate: return "SmlUpdate";
    case PacketKind::SmlResult: return "SmlResult";
    case PacketKind::SmlSyncQuery: return "SmlSyncQuery";
    case PacketKind::SmlSyncResponse: return "SmlSyncResponse";
    case PacketKind::SmlRescue: return "SmlRescue";
    case PacketKind::Segment: return "Segment";
    case PacketKind::Ack: return "Ack";
    case PacketKind::Raw: return "Raw";
  }
  return "?";
}

} // namespace switchml::net
