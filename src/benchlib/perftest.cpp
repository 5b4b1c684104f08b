#include "benchlib/perftest.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "benchlib/send_loop.hpp"
#include "common/pump.hpp"
#include "common/strfmt.hpp"
#include "cpu/spinwait.hpp"

namespace twochains::bench {
namespace {

std::vector<std::uint64_t> DefaultArgs(std::uint64_t iter) {
  // Key space of 128 so the Indirect Put table/heap stay bounded while the
  // index still gets real probe traffic.
  return {iter & 127};
}

}  // namespace

StatusOr<PingPongResult> RunAmPingPong(core::Fabric& fabric,
                                       const AmConfig& config) {
  core::Runtime& initiator = fabric.runtime(0);
  core::Runtime& responder = fabric.runtime(1);
  const ArgsFn args_fn = config.args ? config.args : DefaultArgs;
  const std::uint16_t flags = config.no_execute
                                  ? std::uint16_t{core::kFlagNoExecute}
                                  : std::uint16_t{0};
  const std::vector<std::uint8_t> usr(config.usr_bytes, 0x5A);

  PingPongResult result;
  result.one_way = LatencySample(config.iterations);
  const std::uint64_t total = config.warmup + config.iterations;

  std::uint64_t iter = 0;
  PicoTime ping_start = 0;
  Status failure;

  auto send_ping = [&]() {
    ping_start = fabric.engine().Now();
    auto receipt = initiator.Send(config.jam, config.mode, args_fn(iter),
                                  usr, flags);
    if (!receipt.ok()) {
      failure = receipt.status();
      fabric.engine().Stop();
      return;
    }
    result.frame_len = receipt->frame_len;
    result.protocol = receipt->protocol;
  };

  // Responder: every executed ping triggers a pong.
  responder.SetOnExecuted([&](const core::ReceivedMessage&) {
    auto receipt = responder.Send(config.jam, config.mode, args_fn(iter),
                                  usr, flags);
    if (!receipt.ok()) {
      failure = receipt.status();
      fabric.engine().Stop();
    }
  });

  // Initiator: pong executed -> one iteration complete.
  bool done = false;
  initiator.SetOnExecuted([&](const core::ReceivedMessage& msg) {
    const PicoTime rtt = msg.completed_at - ping_start;
    if (iter >= config.warmup) result.one_way.Add(rtt / 2);
    ++iter;
    ++result.messages;
    if (iter >= total) {
      done = true;
      fabric.engine().Stop();
      return;
    }
    send_ping();
  });

  send_ping();
  fabric.RunUntil([&] { return done || !failure.ok(); });
  // Both hooks capture this frame's locals: clear them on every return.
  initiator.SetOnExecuted(nullptr);
  responder.SetOnExecuted(nullptr);
  if (!failure.ok()) return failure;
  if (!done) return Internal("ping-pong stalled (flow control deadlock?)");
  result.responder_counters = responder.ReceiverPoolCounters();
  return result;
}

StatusOr<RateResult> RunAmInjectionRate(core::Fabric& fabric,
                                        const AmConfig& config) {
  core::Runtime& receiver = fabric.runtime(1);
  const ArgsFn args_fn = config.args ? config.args : DefaultArgs;
  const std::uint16_t flags = config.no_execute
                                  ? std::uint16_t{core::kFlagNoExecute}
                                  : std::uint16_t{0};
  const std::vector<std::uint8_t> usr(config.usr_bytes, 0xA5);

  const std::uint64_t total = config.iterations;
  RateResult result;
  result.messages = total;

  std::optional<PicoTime> first_send;
  std::uint64_t completed = 0;
  PicoTime last_complete = 0;
  bool done = false;

  SendLoops sender(
      fabric,
      {{.src = 0,
        .dst = 1,
        .count = total,
        .next =
            [&](std::uint64_t n) {
              return FlowMessage{config.jam, config.mode, args_fn(n), usr,
                                 flags};
            },
        .on_sent =
            [&](const core::SendReceipt& receipt) {
              if (!first_send) first_send = fabric.engine().Now();
              result.frame_len = receipt.frame_len;
              result.wire_bytes += receipt.frame_len;
            }}});

  receiver.SetOnExecuted([&](const core::ReceivedMessage& msg) {
    ++completed;
    last_complete = msg.completed_at;
    if (completed >= total) {
      done = true;
      fabric.engine().Stop();
    }
  });

  fabric.RunUntil([&] { return done; });
  receiver.SetOnExecuted(nullptr);
  TC_RETURN_IF_ERROR(sender.status());
  if (!done) return Internal("injection-rate run stalled");

  result.duration = last_complete - *first_send;
  result.messages_per_second = MessagesPerSecond(total, result.duration);
  result.megabytes_per_second =
      MegabytesPerSecond(result.wire_bytes, result.duration);
  result.rx_jam = receiver.jam_cache_stats();
  return result;
}

StatusOr<IncastResult> RunIncastRate(core::Fabric& fabric,
                                     std::uint32_t receiver,
                                     const std::vector<std::uint32_t>& senders,
                                     const IncastConfig& config) {
  if (senders.empty()) return InvalidArgument("no senders");
  if (!config.sender_weights.empty() &&
      config.sender_weights.size() != senders.size()) {
    return InvalidArgument(
        StrFormat("%zu sender_weights for %zu senders",
                  config.sender_weights.size(), senders.size()));
  }
  core::Runtime& rx = fabric.runtime(receiver);
  const ArgsFn args_fn = config.args ? config.args : DefaultArgs;
  const std::vector<std::uint8_t> usr(config.usr_bytes, 0xC3);

  // Lane-partitioned like openloop.cpp, so a laned fabric runs race-free
  // and identical to the scalar one: a Sender is written only by its
  // flow's on_sent (the sender's lane), `completions` only by the
  // receiver's hook (the receiver's lane), and sends are matched to
  // completions after the run.
  struct Sender {
    std::uint32_t weight = 1;
    std::optional<PicoTime> first_send;
    std::uint64_t wire_bytes = 0;
    std::map<std::uint32_t, PicoTime> send_time;  // by sn (sns may be sparse)
  };
  struct Completion {
    std::size_t sender = 0;
    std::uint32_t sn = 0;
    PicoTime at = 0;
  };
  std::vector<Sender> state(senders.size());
  std::map<core::PeerId, std::size_t> by_rx_peer;  // receiver-side id -> idx
  std::vector<SendFlow> flows;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (senders[i] == receiver) {
      return InvalidArgument("receiver cannot also be a sender");
    }
    // Weight 0 is a *silent* sender: it participates in the topology but
    // pushes nothing (and is excluded from the fairness normalization
    // below — dividing its zero rate by a zero weight would poison Jain
    // with NaN).
    state[i].weight =
        config.sender_weights.empty() ? 1u : config.sender_weights[i];
    TC_ASSIGN_OR_RETURN(const core::PeerId rx_peer,
                        fabric.PeerIdFor(receiver, senders[i]));
    if (!by_rx_peer.emplace(rx_peer, i).second) {
      return InvalidArgument("duplicate sender host");
    }
    flows.push_back(
        {.src = senders[i],
         .dst = receiver,
         .count = std::uint64_t{config.iterations_per_sender} *
                  state[i].weight,
         .next =
             [&](std::uint64_t n) {
               return FlowMessage{config.jam, config.mode, args_fn(n), usr};
             },
         .on_sent =
             [&fabric, &s = state[i]](const core::SendReceipt& receipt) {
               const PicoTime now = fabric.engine().Now();
               if (!s.first_send) s.first_send = now;
               s.wire_bytes += receipt.frame_len;
               s.send_time[receipt.sn] = now;
             }});
    total += flows.back().count;
  }
  if (total == 0) {
    return InvalidArgument("every sender weight is zero (nothing to send)");
  }

  // One closed loop per sender, each paced by its own sender CPU and its
  // own per-peer flow control toward the receiver.
  SendLoops loops(fabric, std::move(flows));
  TC_RETURN_IF_ERROR(loops.status());

  std::vector<Completion> completions;
  completions.reserve(total);
  bool done = false;
  rx.SetOnExecuted([&](const core::ReceivedMessage& msg) {
    if (done) return;  // a laned run finishes its window past the cut
    const auto it = by_rx_peer.find(msg.from);
    if (it == by_rx_peer.end()) return;  // not one of our senders
    completions.push_back({it->second, msg.sn, msg.completed_at});
    if (completions.size() >= total) {
      done = true;
      fabric.engine().Stop();
    }
  });
  fabric.RunUntil([&] { return done; });
  rx.SetOnExecuted(nullptr);
  TC_RETURN_IF_ERROR(loops.status());
  if (!done) return Internal("incast run stalled (flow control deadlock?)");

  IncastResult result;
  result.latency = LatencySample(total);
  std::vector<std::uint64_t> completed(senders.size(), 0);
  for (const Completion& c : completions) {
    ++completed[c.sender];
    auto& send_time = state[c.sender].send_time;
    const auto sent_at = send_time.find(c.sn);
    if (sent_at != send_time.end()) {
      result.latency.Add(c.at - sent_at->second);
      send_time.erase(sent_at);
    }
  }
  PicoTime first_send = completions.back().at;  // every send precedes it
  for (const Sender& s : state) {
    if (s.first_send) first_send = std::min(first_send, *s.first_send);
    result.wire_bytes += s.wire_bytes;
  }
  result.duration = completions.back().at - first_send;
  result.aggregate_messages_per_second =
      MessagesPerSecond(total, result.duration);
  result.aggregate_megabytes_per_second =
      MegabytesPerSecond(result.wire_bytes, result.duration);

  double sum = 0, sum_sq = 0;
  std::size_t participants = 0;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    IncastSenderResult sr;
    sr.host = senders[i];
    sr.messages = completed[i];
    sr.messages_per_second = MessagesPerSecond(completed[i], result.duration);
    sr.flow_control_waits = loops.flow_control_waits(i);
    // Under a skewed load, fairness is per *offered* load: normalize each
    // sender's rate by its weight so Jain still reads 1.0 when everyone
    // completes in proportion to what they pushed. Weight-0 (silent)
    // senders offered nothing, so they are excluded from both the sum and
    // the denominator — dividing by their zero weight would yield
    // inf/NaN, and counting them as a zero share would misread a fully
    // fair run as unfair.
    if (state[i].weight > 0) {
      const double normalized = sr.messages_per_second / state[i].weight;
      sum += normalized;
      sum_sq += normalized * normalized;
      ++participants;
    }
    result.per_sender.push_back(sr);
  }
  if (sum_sq > 0 && participants > 0) {
    result.fairness =
        (sum * sum) / (static_cast<double>(participants) * sum_sq);
  }
  return result;
}

Table PeerStatsTable(const core::Runtime& runtime) {
  Table table({"peer", "sent", "delivered", "executed", "stalls",
               "flags_returned"});
  const core::RuntimeStats stats = runtime.stats();
  for (std::size_t i = 0; i < stats.per_peer.size(); ++i) {
    const core::PeerStats& p = stats.per_peer[i];
    table.AddRow({FmtU64(i), FmtU64(p.messages_sent),
                  FmtU64(p.messages_delivered), FmtU64(p.messages_executed),
                  FmtU64(p.send_stalls), FmtU64(p.bank_flags_returned)});
  }
  return table;
}

// ------------------------------------------------------------- raw puts

namespace {

/// One side of the raw-put ping-pong: buffer + endpoint + wait model.
struct RawSide {
  core::Runtime* runtime = nullptr;
  std::unique_ptr<ucxs::Endpoint> endpoint;
  mem::VirtAddr send_buf = 0;
  mem::VirtAddr recv_buf = 0;
  mem::RKey recv_rkey;
  PicoTime idle_since = 0;
};

/// Cycles the UCX progress path burns detecting one completion (queue
/// polling + bookkeeping) — the "library overhead ... detecting message
/// completion" of §VII.
constexpr Cycles kUcxDetectCycles = 140;

}  // namespace

StatusOr<PingPongResult> RunRawPutPingPong(core::Fabric& fabric,
                                           const RawPutConfig& config) {
  // Independent buffers; does not touch the Two-Chains mailboxes.
  RawSide sides[2];
  for (int i = 0; i < 2; ++i) {
    auto& host = fabric.host(i);
    sides[i].runtime = &fabric.runtime(i);
    TC_ASSIGN_OR_RETURN(sides[i].send_buf,
                        host.memory().Allocate(config.size + 64, 64,
                                               mem::Perm::kRW, "raw:send"));
    TC_ASSIGN_OR_RETURN(sides[i].recv_buf,
                        host.memory().Allocate(config.size + 64, 64,
                                               mem::Perm::kRW, "raw:recv"));
    TC_ASSIGN_OR_RETURN(
        sides[i].recv_rkey,
        host.regions().RegisterRegion(sides[i].recv_buf, config.size + 64,
                                      mem::RemoteAccess::kWrite, "raw:recv"));
    // Standard UCX put path toward the other host.
    sides[i].endpoint = std::make_unique<ucxs::Endpoint>(
        fabric.engine(), fabric.nic(i), fabric.nic(1 - i),
        ucxs::PutMode::kUcx);
  }

  const cpu::WaitModel wait(fabric.runtime(0).config().wait.mode);

  PingPongResult result;
  result.one_way = LatencySample(config.iterations);
  const std::uint64_t total = config.warmup + config.iterations;
  std::uint64_t iter = 0;
  PicoTime ping_start = 0;
  bool done = false;
  Status failure;

  // forward declaration of the mutually recursive send/receive steps.
  PumpLoop<int> send_from;
  send_from.Set([&, resume = send_from.Handle()](int from) {
    const int to = 1 - from;
    if (from == 0) ping_start = fabric.engine().Now();
    auto receipt = sides[from].endpoint->PutNbi(
        sides[from].send_buf, sides[to].recv_buf, config.size,
        sides[to].recv_rkey, false,
        [&, resume, to](const net::PutCompletion& c) {
          if (!c.status.ok()) {
            failure = c.status;
            fabric.engine().Stop();
            return;
          }
          // Receiver detection: poll/WFE on the buffer tail + UCX
          // completion processing, charged to the receiving core.
          auto& host = fabric.host(to);
          const PicoTime waited =
              c.delivered_at > sides[to].idle_since
                  ? c.delivered_at - sides[to].idle_since
                  : 0;
          const cpu::WaitOutcome outcome = wait.Wait(waited);
          host.core(0).Charge(outcome.cycles_burned, cpu::CycleClass::kWait);
          Cycles detect = kUcxDetectCycles;
          detect += host.caches().Access(
              0, sides[to].recv_buf + config.size - 8, 8,
              cache::AccessKind::kLoad);
          const PicoTime busy =
              host.core(0).Charge(detect, cpu::CycleClass::kExecute);
          const PicoTime wake =
              c.delivered_at + outcome.detection_delay + busy;
          fabric.engine().ScheduleAt(
              wake,
              [&, resume, to] {
                sides[to].idle_since = fabric.engine().Now();
                if (to == 0) {
                  // pong landed back at the initiator: iteration done.
                  const PicoTime rtt = fabric.engine().Now() - ping_start;
                  if (iter >= config.warmup) result.one_way.Add(rtt / 2);
                  ++iter;
                  ++result.messages;
                  if (iter >= total) {
                    done = true;
                    fabric.engine().Stop();
                    return;
                  }
                  resume(0);
                } else {
                  resume(1);  // respond with pong
                }
              },
              "raw.detect");
        });
    if (!receipt.ok()) {
      failure = receipt.status();
      fabric.engine().Stop();
    }
  });

  sides[0].idle_since = sides[1].idle_since = fabric.engine().Now();
  send_from(0);
  fabric.RunUntil([&] { return done || !failure.ok(); });
  if (!failure.ok()) return failure;
  if (!done) return Internal("raw put ping-pong stalled");
  result.frame_len = config.size;
  result.protocol = ucxs::SelectProtocol(config.size);
  result.responder_counters = fabric.host(1).core(0).counters();
  return result;
}

StatusOr<RateResult> RunRawPutStream(core::Fabric& fabric,
                                     const RawPutConfig& config) {
  auto& src_host = fabric.host(0);
  auto& dst_host = fabric.host(1);
  TC_ASSIGN_OR_RETURN(const mem::VirtAddr src,
                      src_host.memory().Allocate(config.size + 64, 64,
                                                 mem::Perm::kRW, "raw:src"));
  TC_ASSIGN_OR_RETURN(const mem::VirtAddr dst,
                      dst_host.memory().Allocate(config.size + 64, 64,
                                                 mem::Perm::kRW, "raw:dst"));
  TC_ASSIGN_OR_RETURN(
      const mem::RKey rkey,
      dst_host.regions().RegisterRegion(dst, config.size + 64,
                                        mem::RemoteAccess::kWrite,
                                        "raw:dst"));
  ucxs::Endpoint endpoint(fabric.engine(), fabric.nic(0), fabric.nic(1),
                          ucxs::PutMode::kUcx);

  const std::uint64_t total = config.iterations;
  RateResult result;
  result.messages = total;
  result.frame_len = config.size;

  std::uint64_t posted = 0;
  std::uint64_t delivered = 0;
  PicoTime last_delivery = 0;
  bool done = false;
  Status failure;

  PumpLoop<> post_loop;
  post_loop.Set([&, resume = post_loop.Handle()]() {
    if (posted >= total || !failure.ok()) return;
    auto receipt = endpoint.PutNbi(
        src, dst, config.size, rkey, false,
        [&](const net::PutCompletion& c) {
          if (!c.status.ok()) {
            failure = c.status;
            fabric.engine().Stop();
            return;
          }
          // Sender-side completion processing (tracking) cost.
          fabric.host(0).core(1).Charge(kUcxDetectCycles,
                                        cpu::CycleClass::kExecute);
          ++delivered;
          last_delivery = c.delivered_at;
          if (delivered >= total) {
            done = true;
            fabric.engine().Stop();
          }
        });
    if (!receipt.ok()) {
      failure = receipt.status();
      fabric.engine().Stop();
      return;
    }
    ++posted;
    fabric.engine().ScheduleAfter(receipt->sender_overhead, resume,
                                  "raw.post");
  });

  post_loop();
  fabric.RunUntil([&] { return done || !failure.ok(); });
  if (!failure.ok()) return failure;
  if (!done) return Internal("raw put stream stalled");

  result.duration = last_delivery;
  result.messages_per_second = MessagesPerSecond(total, result.duration);
  result.megabytes_per_second =
      MegabytesPerSecond(total * config.size, result.duration);
  return result;
}

}  // namespace twochains::bench
