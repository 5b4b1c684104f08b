#include "benchlib/perftest.hpp"

#include <map>
#include <memory>

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

StatusOr<PingPongResult> RunAmPingPong(core::Testbed& testbed,
                                       const AmConfig& config) {
  core::Runtime& initiator = testbed.runtime(0);
  core::Runtime& responder = testbed.runtime(1);
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
    ping_start = testbed.engine().Now();
    auto receipt = initiator.Send(config.jam, config.mode, args_fn(iter),
                                  usr, flags);
    if (!receipt.ok()) {
      failure = receipt.status();
      testbed.engine().Stop();
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
      testbed.engine().Stop();
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
      testbed.engine().Stop();
      return;
    }
    send_ping();
  });

  send_ping();
  testbed.RunUntil([&] { return done || !failure.ok(); });
  if (!failure.ok()) return failure;
  if (!done) return Internal("ping-pong stalled (flow control deadlock?)");
  result.responder_counters = responder.ReceiverPoolCounters();
  initiator.SetOnExecuted(nullptr);
  responder.SetOnExecuted(nullptr);
  return result;
}

StatusOr<RateResult> RunAmInjectionRate(core::Testbed& testbed,
                                        const AmConfig& config) {
  core::Runtime& sender = testbed.runtime(0);
  core::Runtime& receiver = testbed.runtime(1);
  const ArgsFn args_fn = config.args ? config.args : DefaultArgs;
  const std::uint16_t flags = config.no_execute
                                  ? std::uint16_t{core::kFlagNoExecute}
                                  : std::uint16_t{0};
  const std::vector<std::uint8_t> usr(config.usr_bytes, 0xA5);

  const std::uint64_t total = config.iterations;
  RateResult result;
  result.messages = total;

  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  PicoTime first_send = 0;
  PicoTime last_complete = 0;
  bool started = false;
  bool done = false;
  Status failure;

  PumpLoop<> send_loop;
  send_loop.Set([&, resume = send_loop.Handle()]() {
    if (sent >= total || !failure.ok()) return;
    if (!sender.HasFreeSlot()) {
      sender.NotifyWhenSlotFree(resume);
      return;
    }
    if (!started) {
      started = true;
      first_send = testbed.engine().Now();
    }
    auto receipt =
        sender.Send(config.jam, config.mode, args_fn(sent), usr, flags);
    if (!receipt.ok()) {
      failure = receipt.status();
      testbed.engine().Stop();
      return;
    }
    result.frame_len = receipt->frame_len;
    result.wire_bytes += receipt->frame_len;
    ++sent;
    // The sender core is busy for sender_cost; next message after that.
    testbed.engine().ScheduleAfter(receipt->sender_cost, resume,
                                   "bench.send");
  });

  receiver.SetOnExecuted([&](const core::ReceivedMessage& msg) {
    ++completed;
    last_complete = msg.completed_at;
    if (completed >= total) {
      done = true;
      testbed.engine().Stop();
    }
  });

  send_loop();
  testbed.RunUntil([&] { return done || !failure.ok(); });
  if (!failure.ok()) return failure;
  if (!done) return Internal("injection-rate run stalled");
  receiver.SetOnExecuted(nullptr);

  result.duration = last_complete - first_send;
  result.messages_per_second = MessagesPerSecond(total, result.duration);
  result.megabytes_per_second =
      MegabytesPerSecond(result.wire_bytes, result.duration);
  result.rx_jam = receiver.jam_cache_stats();
  return result;
}

namespace {

/// Shared run state for RunIncastRate. Heap-allocated and captured by
/// shared_ptr in every pump/waiter callback, so events or slot-waiters
/// that outlive the call (e.g. after an early Stop()) stay harmless.
struct IncastCtx {
  struct Sender {
    core::Runtime* runtime = nullptr;
    core::PeerId to_receiver = core::kInvalidPeer;  // on the sender
    std::uint64_t target = 0;  ///< messages this sender pushes (skew-aware)
    std::uint32_t weight = 1;
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t flow_control_waits = 0;
    std::map<std::uint32_t, PicoTime> send_time;  // by sn (sns may be sparse)
  };
  std::vector<Sender> senders;
  std::map<core::PeerId, std::size_t> by_rx_peer;  // receiver-side id -> idx
  std::vector<std::uint8_t> usr;
  ArgsFn args;
  std::string jam;
  core::Invoke mode = core::Invoke::kInjected;
  std::uint64_t per_sender = 0;
  std::uint64_t total = 0;
  std::uint64_t completed = 0;
  std::uint64_t frame_len = 0;
  PicoTime first_send = 0;
  PicoTime last_complete = 0;
  bool started = false;
  bool done = false;
  bool active = true;  ///< cleared when RunIncastRate returns
  Status failure;
  LatencySample latency;
};

}  // namespace

StatusOr<IncastResult> RunIncastRate(core::Fabric& fabric,
                                     std::uint32_t receiver,
                                     const std::vector<std::uint32_t>& senders,
                                     const IncastConfig& config) {
  if (senders.empty()) return InvalidArgument("no senders");
  core::Runtime& rx = fabric.runtime(receiver);

  auto ctx = std::make_shared<IncastCtx>();
  ctx->usr.assign(config.usr_bytes, 0xC3);
  ctx->args = config.args ? config.args : DefaultArgs;
  ctx->jam = config.jam;
  ctx->mode = config.mode;
  if (!config.sender_weights.empty() &&
      config.sender_weights.size() != senders.size()) {
    return InvalidArgument(
        StrFormat("%zu sender_weights for %zu senders",
                  config.sender_weights.size(), senders.size()));
  }
  ctx->per_sender = config.iterations_per_sender;
  ctx->total = 0;
  ctx->senders.resize(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (senders[i] == receiver) {
      return InvalidArgument("receiver cannot also be a sender");
    }
    // Weight 0 is a *silent* sender: it participates in the topology but
    // pushes nothing (and is excluded from the fairness normalization
    // below — dividing its zero rate by a zero weight would poison Jain
    // with NaN).
    const std::uint32_t weight =
        config.sender_weights.empty() ? 1u : config.sender_weights[i];
    ctx->senders[i].weight = weight;
    ctx->senders[i].target = ctx->per_sender * weight;
    ctx->total += ctx->senders[i].target;
    ctx->senders[i].runtime = &fabric.runtime(senders[i]);
    TC_ASSIGN_OR_RETURN(ctx->senders[i].to_receiver,
                        fabric.PeerIdFor(senders[i], receiver));
    TC_ASSIGN_OR_RETURN(const core::PeerId rx_peer,
                        fabric.PeerIdFor(receiver, senders[i]));
    if (!ctx->by_rx_peer.emplace(rx_peer, i).second) {
      return InvalidArgument("duplicate sender host");
    }
  }
  if (ctx->total == 0) {
    return InvalidArgument("every sender weight is zero (nothing to send)");
  }
  ctx->latency = LatencySample(ctx->total);

  // One pump per sender, each paced by its own sender CPU and its own
  // per-peer flow control toward the receiver.
  std::vector<PumpLoop<>> pumps(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    pumps[i].Set([ctx, &fabric, i, resume = pumps[i].Handle()]() {
      if (!ctx->active) return;
      IncastCtx::Sender& s = ctx->senders[i];
      if (s.sent >= s.target || !ctx->failure.ok()) return;
      if (!s.runtime->HasFreeSlot(s.to_receiver)) {
        ++s.flow_control_waits;
        s.runtime->NotifyWhenSlotFree(s.to_receiver, resume);
        return;
      }
      if (!ctx->started) {
        ctx->started = true;
        ctx->first_send = fabric.engine().Now();
      }
      auto receipt = s.runtime->Send(s.to_receiver, ctx->jam, ctx->mode,
                                     ctx->args(s.sent), ctx->usr);
      if (!receipt.ok()) {
        ctx->failure = receipt.status();
        fabric.engine().Stop();
        return;
      }
      s.send_time[receipt->sn] = fabric.engine().Now();
      ctx->frame_len = receipt->frame_len;
      ++s.sent;
      fabric.engine().ScheduleAfter(receipt->sender_cost, resume,
                                    "incast.send");
    });
  }

  rx.SetOnExecuted([ctx, &fabric](const core::ReceivedMessage& msg) {
    const auto it = ctx->by_rx_peer.find(msg.from);
    if (it == ctx->by_rx_peer.end()) return;  // not one of our senders
    IncastCtx::Sender& s = ctx->senders[it->second];
    ++s.completed;
    ++ctx->completed;
    ctx->last_complete = msg.completed_at;
    const auto sent_at = s.send_time.find(msg.sn);
    if (sent_at != s.send_time.end()) {
      ctx->latency.Add(msg.completed_at - sent_at->second);
      s.send_time.erase(sent_at);
    }
    if (ctx->completed >= ctx->total) {
      ctx->done = true;
      fabric.engine().Stop();
    }
  });

  for (auto& pump : pumps) pump();
  fabric.RunUntil([&] { return ctx->done || !ctx->failure.ok(); });
  rx.SetOnExecuted(nullptr);
  ctx->active = false;  // defuse any still-parked pump callbacks
  if (!ctx->failure.ok()) return ctx->failure;
  if (!ctx->done) return Internal("incast run stalled (flow control deadlock?)");

  IncastResult result;
  result.frame_len = ctx->frame_len;
  result.latency = std::move(ctx->latency);
  result.duration = ctx->last_complete - ctx->first_send;
  result.aggregate_messages_per_second =
      MessagesPerSecond(ctx->total, result.duration);
  result.aggregate_megabytes_per_second =
      MegabytesPerSecond(ctx->total * result.frame_len, result.duration);

  double sum = 0, sum_sq = 0;
  std::size_t participants = 0;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    IncastSenderResult sr;
    sr.host = senders[i];
    sr.messages = ctx->senders[i].completed;
    sr.messages_per_second =
        MessagesPerSecond(ctx->senders[i].completed, result.duration);
    sr.flow_control_waits = ctx->senders[i].flow_control_waits;
    // Under a skewed load, fairness is per *offered* load: normalize each
    // sender's rate by its weight so Jain still reads 1.0 when everyone
    // completes in proportion to what they pushed. Weight-0 (silent)
    // senders offered nothing, so they are excluded from both the sum and
    // the denominator — dividing by their zero weight would yield
    // inf/NaN, and counting them as a zero share would misread a fully
    // fair run as unfair.
    if (ctx->senders[i].weight > 0) {
      const double normalized =
          sr.messages_per_second / ctx->senders[i].weight;
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
  const auto& per_peer = runtime.stats().per_peer;
  for (std::size_t i = 0; i < per_peer.size(); ++i) {
    const core::PeerStats& p = per_peer[i];
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

StatusOr<PingPongResult> RunRawPutPingPong(core::Testbed& testbed,
                                           const RawPutConfig& config) {
  // Independent buffers; does not touch the Two-Chains mailboxes.
  RawSide sides[2];
  ucxs::Worker* workers[2] = {nullptr, nullptr};
  for (int i = 0; i < 2; ++i) {
    auto& host = testbed.host(i);
    sides[i].runtime = &testbed.runtime(i);
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
  }
  // Endpoints: standard UCX put path.
  ucxs::Context ctx0(testbed.engine(), testbed.host(0), testbed.nic(0));
  ucxs::Context ctx1(testbed.engine(), testbed.host(1), testbed.nic(1));
  ucxs::Worker w0(ctx0), w1(ctx1);
  workers[0] = &w0;
  workers[1] = &w1;
  sides[0].endpoint =
      std::make_unique<ucxs::Endpoint>(*workers[0], ucxs::PutMode::kUcx);
  sides[1].endpoint =
      std::make_unique<ucxs::Endpoint>(*workers[1], ucxs::PutMode::kUcx);

  const cpu::WaitModelConfig wait_cfg = testbed.runtime(0).config().wait;
  cpu::WaitModel wait(wait_cfg, kCoreClock);

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
    if (from == 0) ping_start = testbed.engine().Now();
    auto receipt = sides[from].endpoint->PutNbi(
        sides[from].send_buf, sides[to].recv_buf, config.size,
        sides[to].recv_rkey, false,
        [&, resume, to](const net::PutCompletion& c) {
          if (!c.status.ok()) {
            failure = c.status;
            testbed.engine().Stop();
            return;
          }
          // Receiver detection: poll/WFE on the buffer tail + UCX
          // completion processing, charged to the receiving core.
          auto& host = testbed.host(to);
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
          testbed.engine().ScheduleAt(
              wake,
              [&, resume, to] {
                sides[to].idle_since = testbed.engine().Now();
                if (to == 0) {
                  // pong landed back at the initiator: iteration done.
                  const PicoTime rtt = testbed.engine().Now() - ping_start;
                  if (iter >= config.warmup) result.one_way.Add(rtt / 2);
                  ++iter;
                  ++result.messages;
                  if (iter >= total) {
                    done = true;
                    testbed.engine().Stop();
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
      testbed.engine().Stop();
    }
  });

  sides[0].idle_since = sides[1].idle_since = testbed.engine().Now();
  send_from(0);
  testbed.RunUntil([&] { return done || !failure.ok(); });
  if (!failure.ok()) return failure;
  if (!done) return Internal("raw put ping-pong stalled");
  result.frame_len = config.size;
  result.protocol = sides[0].endpoint->SelectProtocol(config.size);
  result.responder_counters = testbed.host(1).core(0).counters();
  return result;
}

StatusOr<RateResult> RunRawPutStream(core::Testbed& testbed,
                                     const RawPutConfig& config) {
  auto& src_host = testbed.host(0);
  auto& dst_host = testbed.host(1);
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
  ucxs::Context ctx(testbed.engine(), src_host, testbed.nic(0));
  ucxs::Worker worker(ctx);
  ucxs::Endpoint endpoint(worker, ucxs::PutMode::kUcx);

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
            testbed.engine().Stop();
            return;
          }
          // Sender-side completion processing (tracking) cost.
          testbed.host(0).core(1).Charge(kUcxDetectCycles,
                                         cpu::CycleClass::kExecute);
          ++delivered;
          last_delivery = c.delivered_at;
          if (delivered >= total) {
            done = true;
            testbed.engine().Stop();
          }
        });
    if (!receipt.ok()) {
      failure = receipt.status();
      testbed.engine().Stop();
      return;
    }
    ++posted;
    testbed.engine().ScheduleAfter(receipt->sender_overhead, resume,
                                   "raw.post");
  });

  post_loop();
  testbed.RunUntil([&] { return done || !failure.ok(); });
  if (!failure.ok()) return failure;
  if (!done) return Internal("raw put stream stalled");

  result.duration = last_delivery;
  result.messages_per_second = MessagesPerSecond(total, result.duration);
  result.megabytes_per_second =
      MegabytesPerSecond(total * config.size, result.duration);
  return result;
}

}  // namespace twochains::bench
