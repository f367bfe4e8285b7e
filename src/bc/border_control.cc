#include "bc/border_control.hh"

#include <algorithm>

#include "sim/contracts.hh"
#include "sim/fault.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace bctrl {

BorderControl::BorderControl(EventQueue &eq, const std::string &name,
                             const Params &params, MemDevice &downstream,
                             PacketPool *pool)
    : SimObject(eq, name),
      params_(params),
      downstream_(downstream),
      pool_(pool),
      bcc_(params.bcc),
      borderRequests_(statGroup().scalar(
          "borderRequests", "accelerator requests checked at the border")),
      readChecks_(statGroup().scalar("readChecks",
                                     "read-permission checks")),
      writeChecks_(statGroup().scalar("writeChecks",
                                      "write-permission checks")),
      violations_(statGroup().scalar(
          "violations", "accesses blocked for insufficient permission")),
      bccHitStat_(statGroup().scalar("bccHits", "BCC hits")),
      bccMissStat_(statGroup().scalar("bccMisses", "BCC misses")),
      insertions_(statGroup().scalar(
          "insertions", "Protection Table insertions from the ATS")),
      tableTrafficBytes_(statGroup().scalar(
          "tableTrafficBytes", "memory traffic to the Protection Table")),
      checkLatencyBccHit_(statGroup().histogram(
          "checkLatencyBccHit",
          "border check latency in ticks, resolved by a BCC hit")),
      checkLatencyTableWalk_(statGroup().histogram(
          "checkLatencyTableWalk",
          "border check latency in ticks, resolved by a table walk")),
      checkLatencyDenied_(statGroup().histogram(
          "checkLatencyDenied",
          "border check latency in ticks for denied accesses")),
      capViolations_(statGroup().scalar(
          "capViolations",
          "accesses denied by the capability policy")),
      specBccFills_(statGroup().scalar(
          "specBccFills",
          "BCC fills left behind by squashed speculation")),
      specDeferred_(statGroup().scalar(
          "specDeferred",
          "speculative requests deferred under resident-only")),
      specDenied_(statGroup().scalar(
          "specDenied",
          "speculative requests denied without OS notification"))
{
    panic_if(params_.clockPeriod == 0, "Border Control clock is zero");
}

Tick
BorderControl::clockEdge(Cycles cycles) const
{
    Tick now = curTick();
    Tick rem = now % params_.clockPeriod;
    Tick edge = rem == 0 ? now : now + (params_.clockPeriod - rem);
    return edge + cycles * params_.clockPeriod;
}

void
BorderControl::attachTable(ProtectionTable *table)
{
    panic_if(table_ != nullptr && table != table_,
             "attaching a second protection table");
    table_ = table;
}

void
BorderControl::detachTable()
{
    panic_if(useCount_ != 0,
             "detaching protection table while %u processes are active",
             useCount_);
    table_ = nullptr;
    bcc_.invalidateAll();
    readOnceConsumed_.clear();
    quotaTouched_.clear();
}

unsigned
BorderControl::decrUseCount()
{
    panic_if(useCount_ == 0, "use count underflow");
    return --useCount_;
}

void
BorderControl::chargeTableAccess(Addr table_addr, unsigned bytes,
                                 bool write)
{
    tableTrafficBytes_ += bytes;
    if (!params_.chargeTableTraffic)
        return;
    auto pkt = allocPacket(pool_, write ? MemCmd::Write : MemCmd::Read,
                           table_addr, bytes, Requestor::trustedHw);
    pkt->issuedAt = curTick();
    downstream_.access(pkt);
}

Perms
BorderControl::evaluate(Addr ppn, Tick &check_done,
                        CheckOutcome &outcome, bool speculative)
{
    // §3.2.3: the Protection Table is only consulted after the bounds
    // check; anything outside bounds has no permissions.
    if (table_ == nullptr) {
        check_done = clockEdge();
        outcome = CheckOutcome::boundsOnly;
        return Perms::noAccess();
    }

    if (params_.useBcc) {
        if (!table_->inBounds(ppn)) {
            check_done = clockEdge(params_.bccLatency);
            outcome = CheckOutcome::boundsOnly;
            return Perms::noAccess();
        }
        if (auto hit = bcc_.lookup(ppn)) {
            ++bccHitStat_;
            outcome = CheckOutcome::bccHit;
            // Inclusion contract (paper §3.3): the BCC is write-through
            // to the Protection Table, so a resident entry must hold
            // exactly the permissions the table holds. A divergence
            // here means a downgrade or insertion skipped one of the
            // two structures — the bug class that silently voids the
            // sandboxing guarantee.
            BCTRL_ASSERT_MSG(
                *hit == table_->getPerms(ppn),
                "BCC/Protection Table divergence for ppn 0x%llx: "
                "BCC {r=%d w=%d} vs table {r=%d w=%d}",
                (unsigned long long)ppn, hit->read, hit->write,
                table_->getPerms(ppn).read, table_->getPerms(ppn).write);
            check_done = clockEdge(params_.bccLatency);
            return *hit;
        }
        ++bccMissStat_;
        // Commit gate: a speculative miss may not allocate BCC state.
        // Resident-only defers the request entirely; defer-fills
        // answers from the table and leaves the BCC cold. Only the
        // leaky baseline fills (and the leak counter records it).
        if (speculative &&
            params_.spec.fillPolicy != SpecFillPolicy::leaky) {
            if (params_.spec.fillPolicy == SpecFillPolicy::residentOnly) {
                check_done = clockEdge(params_.bccLatency);
                outcome = CheckOutcome::specDefer;
                return Perms::noAccess();
            }
            check_done =
                clockEdge(params_.bccLatency + params_.tableLatency);
            outcome = CheckOutcome::tableWalk;
            chargeTableAccess(table_->entryAddr(ppn), bcc_.fillBytes(),
                              false);
            return table_->getPerms(ppn);
        }
        // Injection point: the BCC fill from the Protection Table. A
        // trusted-side structure, so only lossy/timing faults apply
        // (corrupting the fill would break the BCC⊆PT inclusion
        // contract the hardware is defined by, not merely perturb it).
        // Speculative fills only reach here under the leaky policy.
        const fault::Decision fd =
            speculative ? fault::Decision{}
                        : fault::decide(eventQueue(),
                                        fault::Point::bccFill);
        if (fd.kind == fault::Kind::drop) {
            // The fill is lost: answer from the table directly and
            // leave the BCC cold; the next miss retries the fill.
            check_done =
                clockEdge(params_.bccLatency + params_.tableLatency);
            outcome = CheckOutcome::tableWalk;
            chargeTableAccess(table_->entryAddr(ppn), bcc_.fillBytes(),
                              false);
            return table_->getPerms(ppn);
        }
        if (speculative)
            ++specBccFills_;
        Perms perms = bcc_.fill(ppn, *table_);
        chargeTableAccess(table_->entryAddr(ppn), bcc_.fillBytes(),
                          false);
        if (fd.kind == fault::Kind::duplicate) {
            // A second, redundant fill: idempotent on state, but it
            // costs another table read.
            bcc_.fill(ppn, *table_);
            chargeTableAccess(table_->entryAddr(ppn), bcc_.fillBytes(),
                              false);
        }
        check_done =
            clockEdge(params_.bccLatency + params_.tableLatency);
        if (fd.kind == fault::Kind::delay)
            check_done += fd.delay;
        outcome = CheckOutcome::tableWalk;
        return perms;
    }

    if (!table_->inBounds(ppn)) {
        check_done = clockEdge();
        outcome = CheckOutcome::boundsOnly;
        return Perms::noAccess();
    }
    chargeTableAccess(table_->entryAddr(ppn), 64, false);
    check_done = clockEdge(params_.tableLatency);
    outcome = CheckOutcome::tableWalk;
    return table_->getPerms(ppn);
}

ViolationKind
BorderControl::checkCapabilities(const PacketPtr &pkt)
{
    if (table_ == nullptr)
        return ViolationKind::none;
    const Addr ppn = pkt->pageNum();
    const ProtectionTable::CapEntry *ce = table_->capability(ppn);
    if (ce == nullptr)
        return ViolationKind::none;

    // Commit gate: speculative probes under the safe fill policies may
    // observe capability state but never consume it — a squashed
    // wrong-path read must not burn a read-once budget or a quota slot.
    const bool mutate = !pkt->speculative ||
                        params_.spec.fillPolicy == SpecFillPolicy::leaky;

    if (ce->cap.noShare && pkt->asid != ce->owner)
        return ViolationKind::noShare;

    if (ce->cap.readOnce && pkt->isRead()) {
        if (readOnceConsumed_.count(ppn) != 0)
            return ViolationKind::readOnceReplay;
        if (mutate)
            readOnceConsumed_.insert(ppn);
    }

    if (ce->cap.quota && params_.quotaPages != 0) {
        auto &touched = quotaTouched_[pkt->asid];
        if (touched.count(ppn) == 0) {
            if (touched.size() >= params_.quotaPages)
                return ViolationKind::quotaExceeded;
            // Same commit gate: a speculative probe charges no slot.
            if (mutate)
                touched.insert(ppn);
        }
    }
    return ViolationKind::none;
}

void
BorderControl::deny(const PacketPtr &pkt, Tick when, ViolationKind kind)
{
    ++violations_;
    pkt->denied = true;
    pkt->violation = kind;
    respondAt(eventQueue(), pkt, when);
    if (violationHandler_) {
        PacketPtr held = pkt;
        eventQueue().scheduleLambda(
            [this, held]() { violationHandler_(*held); }, when);
    }
}

void
BorderControl::access(const PacketPtr &pkt)
{
    if (pkt->requestor == Requestor::trustedHw) {
        // Trusted traffic (page walks, table refills routed through us)
        // crosses unchecked.
        downstream_.access(pkt);
        return;
    }

    // Injection point: the untrusted request arriving at the border.
    // Whatever the fault does to it, the surviving copies still go
    // through the full check below — a perturbed request must never
    // become an unchecked one. Speculative (wrong-path) requests skip
    // the injection point: they are not architecturally required to
    // exist, so faulting them would make the committed stream diverge
    // between speculation-on and speculation-off runs.
    fault::FaultEngine *fe = eventQueue().faultEngine();
    if (fe != nullptr && !pkt->speculative) {
        const fault::Decision fd =
            fe->decide(fault::Point::gpuRequest, curTick());
        switch (fd.kind) {
          case fault::Kind::drop: {
            PacketPtr held = pkt;
            fe->holdDropped("borderControl.gpuRequest", curTick(),
                            [this, held]() { access(held); });
            return;
          }
          case fault::Kind::delay: {
            PacketPtr held = pkt;
            eventQueue().scheduleLambda(
                [this, held]() { access(held); },
                curTick() + fd.delay);
            return;
          }
          case fault::Kind::duplicate: {
            // A fire-and-forget replay of the same request. Checked
            // like any other arrival; the suppressor keeps the copy
            // from recursively faulting into a storm.
            auto dup = allocPacket(pool_, pkt->cmd, pkt->paddr,
                                   pkt->size, pkt->requestor, pkt->asid);
            dup->issuedAt = curTick();
            fault::FaultEngine::Suppressor guard(fe);
            access(dup);
            break;
          }
          case fault::Kind::stuckAt:
            // The request bus wedges: this and every later faulted
            // request carry the first faulted address.
            fe->stickAddr(fault::Point::gpuRequest, pkt->paddr);
            break;
          default:
            break;
        }
    }

    HostProfiler::Scope profile(eventQueue().profiler(),
                                HostProfiler::Slot::borderControl);

    ++borderRequests_;
    if (pkt->isRead())
        ++readChecks_;
    else
        ++writeChecks_;
    if (traceHook_)
        traceHook_(pkt->pageNum());

    const Tick now = curTick();
    Tick check_done = 0;
    CheckOutcome outcome = CheckOutcome::boundsOnly;
    const Perms have =
        evaluate(pkt->pageNum(), check_done, outcome, pkt->speculative);
    const Perms need{pkt->isRead(), pkt->isWrite()};
    const Tick check_latency = check_done - now;

    if (outcome == CheckOutcome::specDefer) {
        // Resident-only: a speculative BCC miss is refused outright.
        // The response is not a violation (nothing was attempted
        // against memory) — the requester treats it as a squash.
        ++specDeferred_;
        respondAt(eventQueue(), pkt, check_done);
        return;
    }

    if (!have.covers(need)) {
        checkLatencyDenied_.sample(static_cast<double>(check_latency));
        trace::emit(eventQueue(), trace::Flag::BCC, name().c_str(),
                    "deny", now, check_latency, pkt->traceId,
                    pkt->paddr);
        if (pkt->speculative &&
            params_.spec.fillPolicy != SpecFillPolicy::leaky) {
            // Quiet denial: a squashed wrong-path request must leave
            // no trace, so no OS notification and no violation record
            // — the deny is purely a local response to the requester.
            ++specDenied_;
            pkt->denied = true;
            pkt->violation = ViolationKind::perms;
            respondAt(eventQueue(), pkt, check_done);
            return;
        }
        deny(pkt, check_done);
        return;
    }

    // Capability policy (no-share / read-once / quota) runs after the
    // permission bits pass; a capability denial is a real violation for
    // committed requests, a quiet one for speculative requests under
    // the safe policies.
    const ViolationKind cap = checkCapabilities(pkt);
    if (cap != ViolationKind::none) {
        ++capViolations_;
        checkLatencyDenied_.sample(static_cast<double>(check_latency));
        trace::emit(eventQueue(), trace::Flag::BCC, name().c_str(),
                    "capDeny", now, check_latency, pkt->traceId,
                    pkt->paddr);
        if (pkt->speculative &&
            params_.spec.fillPolicy != SpecFillPolicy::leaky) {
            ++specDenied_;
            pkt->denied = true;
            pkt->violation = cap;
            respondAt(eventQueue(), pkt, check_done);
            return;
        }
        deny(pkt, check_done, cap);
        return;
    }

    switch (outcome) {
      case CheckOutcome::bccHit:
        checkLatencyBccHit_.sample(static_cast<double>(check_latency));
        trace::emit(eventQueue(), trace::Flag::BCC, name().c_str(),
                    "bccHit", now, check_latency, pkt->traceId,
                    pkt->paddr);
        break;
      case CheckOutcome::tableWalk:
        checkLatencyTableWalk_.sample(
            static_cast<double>(check_latency));
        if (params_.useBcc) {
            trace::emit(eventQueue(), trace::Flag::BCC, name().c_str(),
                        "bccMiss", now, 0, pkt->traceId, pkt->paddr);
        }
        trace::emit(eventQueue(), trace::Flag::ProtTable, name().c_str(),
                    "tableWalk", now, check_latency, pkt->traceId,
                    pkt->paddr);
        break;
      case CheckOutcome::boundsOnly:
        // Covered permissions with no table consult cannot happen
        // (no-table and out-of-bounds checks grant nothing), so this
        // arm is unreachable on the allow path.
        break;
      case CheckOutcome::specDefer:
        // Handled by the early return above; unreachable here.
        break;
    }

    if (pkt->isRead() && !params_.serializeReadChecks) {
        // The flat table guarantees single-access lookups, so the check
        // proceeds in parallel with the read; the data response is
        // gated on the later of the two (paper §3.1.1). respondAt()
        // consumes the gate with the same extra delivery hop the old
        // wrapped-callback implementation scheduled, keeping event
        // ordering bit-identical without re-wrapping the callback.
        if (pkt->onResponse && check_done > curTick())
            pkt->responseGateTick = check_done;
        downstream_.access(pkt);
    } else {
        // Writes (and, in the serialized ablation, reads) must not
        // reach memory before the check completes.
        PacketPtr held = pkt;
        eventQueue().scheduleLambda(
            [this, held]() { downstream_.access(held); }, check_done);
    }
}

void
BorderControl::onTranslation(Asid asid, Addr vpn, Addr ppn, Perms perms,
                             bool large_page)
{
    (void)asid;
    (void)vpn;
    if (table_ == nullptr)
        return;

    ++insertions_;
    // Speculative translations never reach this insert under the safe
    // fill policies — the ATS commit-gates its onTranslation notify —
    // so the fill/merge below only ever records committed (or leaky
    // speculative, counted upstream) state.
    trace::emit(eventQueue(), trace::Flag::ProtTable, name().c_str(),
                "insert", curTick(), 0, 0, ppn * pageSize);
    const unsigned pages = large_page ? pagesPerLargePage : 1;
    for (unsigned i = 0; i < pages; ++i) {
        const Addr p = ppn + i;
        if (!table_->inBounds(p))
            continue;
        const Perms merged = table_->mergePerms(p, perms);
        if (params_.useBcc && !bcc_.update(p, merged))
            bcc_.fill(p, *table_);
        // Post-condition of the write-through insert: whichever path
        // ran (in-place update or miss fill), the BCC now agrees with
        // the table for this page.
        BCTRL_ASSERT_MSG(!params_.useBcc ||
                             bcc_.probe(p) == table_->getPerms(p),
                         "BCC out of sync after insertion of ppn 0x%llx",
                         (unsigned long long)p);
    }
    // One read-modify-write of the affected table bytes. A 2 MB large
    // page touches 512 entries = 128 B, exactly one memory block.
    const unsigned bytes = std::max(
        64u, pages / ProtectionTable::pagesPerByte);
    chargeTableAccess(table_->entryAddr(ppn), bytes, true);
}

void
BorderControl::downgradePage(Addr ppn, Perms new_perms)
{
    if (table_ == nullptr)
        return;
    if (!table_->inBounds(ppn))
        return;
    table_->setPerms(ppn, new_perms);
    trace::emit(eventQueue(), trace::Flag::ProtTable, name().c_str(),
                "downgrade", curTick(), 0, 0, ppn * pageSize);
    if (params_.useBcc)
        bcc_.update(ppn, new_perms);
    // A downgrade must land in both structures or the stale BCC copy
    // would keep authorizing revoked accesses.
    BCTRL_ASSERT_MSG(!params_.useBcc || !bcc_.resident(ppn) ||
                         bcc_.probe(ppn) == new_perms,
                     "BCC kept stale permissions after downgrade of "
                     "ppn 0x%llx",
                     (unsigned long long)ppn);
    chargeTableAccess(table_->entryAddr(ppn), 64, true);
}

void
BorderControl::zeroTableAndInvalidate()
{
    if (table_ == nullptr)
        return;
    table_->zeroAll();
    bcc_.invalidateAll();
    // Zeroing the table revokes every capability grant with it, so the
    // dynamic state tracking those grants resets too.
    readOnceConsumed_.clear();
    quotaTouched_.clear();
    trace::emit(eventQueue(), trace::Flag::ProtTable, name().c_str(),
                "zeroTable", curTick());
    // Zeroing streams the whole table through memory.
    chargeTableAccess(table_->base(),
                      static_cast<unsigned>(table_->sizeBytes()), true);
}

} // namespace bctrl
