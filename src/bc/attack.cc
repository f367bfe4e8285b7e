#include "bc/attack.hh"

#include "bc/border_control.hh"
#include "sim/logging.hh"

namespace bctrl {

AttackInjector::AttackInjector(System &system)
    : system_(system),
      stats_("system.attack"),
      injected_(stats_.scalar("injected", "attack requests issued")),
      blocked_(stats_.scalar("blocked",
                             "attacks denied by a safety mechanism")),
      unblocked_(stats_.scalar(
          "unblocked", "attacks that completed unchecked (unsafe)")),
      latency_(stats_.histogram(
          "latency", "injection-to-response time of attacks (ticks)"))
{
}

void
AttackInjector::record(const Outcome &outcome)
{
    if (outcome.responded) {
        latency_.sample(static_cast<double>(outcome.latency));
        if (outcome.blocked)
            ++blocked_;
        else
            ++unblocked_;
    } else {
        // Fire-and-forget paths (e.g. an unacknowledged writeback on
        // the unsafe baseline) produce no response: the access went
        // through unchecked.
        ++unblocked_;
    }
}

AttackInjector::Outcome
AttackInjector::inject(const PacketPtr &pkt, bool via_border)
{
    Outcome outcome;
    const Tick start = system_.eventQueue().curTick();
    bool done = false;
    ++injected_;
    pkt->issuedAt = start;
    pkt->onResponse = [&](Packet &p) {
        done = true;
        outcome.responded = true;
        outcome.blocked = p.denied;
        outcome.latency = system_.eventQueue().curTick() - start;
    };

    MemDevice &target = via_border
                            ? system_.borderDevice()
                            : static_cast<MemDevice &>(system_.bus());
    target.access(pkt);
    system_.eventQueue().run();

    if (!done) {
        outcome.responded = false;
        outcome.blocked = false;
    }
    record(outcome);
    return outcome;
}

PacketPtr
AttackInjector::makeAttackPacket(AttackKind kind, Addr addr, Asid asid)
{
    switch (kind) {
      case AttackKind::wildRead:
        return system_.packetPool().make(MemCmd::Read, addr, 64,
                                         Requestor::accelerator);
      case AttackKind::wildWrite:
        return system_.packetPool().make(MemCmd::Write, addr, 64,
                                         Requestor::accelerator);
      case AttackKind::staleWriteback:
        return system_.packetPool().make(MemCmd::Writeback,
                                         blockAlign(addr), blockSize,
                                         Requestor::accelerator);
      case AttackKind::forgedAsidRead: {
        auto pkt = system_.packetPool().make(MemCmd::Read, 0, 64,
                                             Requestor::accelerator,
                                             asid);
        pkt->isVirtual = true;
        pkt->vaddr = addr;
        return pkt;
      }
      case AttackKind::speculativeWildAccess: {
        // A wrong-path wild probe: squashed by construction, so under
        // the safe fill policies it must be denied quietly and leave
        // no shared state behind.
        auto pkt = system_.packetPool().make(MemCmd::Read, addr, 64,
                                             Requestor::accelerator);
        pkt->speculative = true;
        return pkt;
      }
      case AttackKind::readOnceReplay:
      case AttackKind::quotaExhaustion:
        // Multi-access sequences: built in injectCapabilityAttack().
        return nullptr;
    }
    return nullptr;
}

void
AttackInjector::injectCapabilityAttack(AttackKind kind, Addr addr,
                                       Asid asid)
{
    BorderControl *bc = system_.borderControl();
    ProtectionTable *table = bc != nullptr ? bc->table() : nullptr;
    const unsigned quota = bc != nullptr ? bc->params().quotaPages : 0;
    if (table == nullptr ||
        (kind == AttackKind::quotaExhaustion && quota == 0)) {
        // No Border Control table (or the quota policy is disabled):
        // there is no capability state to abuse, so the probe degrades
        // to a plain wild read and records whatever this config does.
        const Tick start = system_.eventQueue().curTick();
        auto pkt = makeAttackPacket(AttackKind::wildRead, addr, 0);
        pkt->issuedAt = start;
        pkt->onResponse = [this, start](Packet &p) {
            Outcome outcome;
            outcome.responded = true;
            outcome.blocked = p.denied;
            outcome.latency = system_.eventQueue().curTick() - start;
            record(outcome);
            asyncOutcomes_.push_back(outcome);
        };
        system_.borderDevice().access(pkt);
        return;
    }

    const Addr ppn = pageNumber(addr);

    if (kind == AttackKind::readOnceReplay) {
        // A colluding driver granted the page read-once through the
        // normal insertion interface; the accelerator consumes the
        // grant, then replays the read. Only the replay is the probe.
        bc->onTranslation(asid, ppn, ppn, Perms{true, false}, false);
        table->setCapability(ppn, Capability{false, true, false}, asid);
        auto first = system_.packetPool().make(
            MemCmd::Read, addr, 64, Requestor::accelerator, asid);
        first->issuedAt = system_.eventQueue().curTick();
        first->onResponse = [this, addr, asid](Packet &) {
            const Tick probe_start = system_.eventQueue().curTick();
            auto replay = system_.packetPool().make(
                MemCmd::Read, addr, 64, Requestor::accelerator, asid);
            replay->issuedAt = probe_start;
            replay->onResponse = [this, probe_start](Packet &p) {
                Outcome outcome;
                outcome.responded = true;
                outcome.blocked = p.denied;
                outcome.latency =
                    system_.eventQueue().curTick() - probe_start;
                record(outcome);
                asyncOutcomes_.push_back(outcome);
            };
            system_.borderDevice().access(replay);
        };
        system_.borderDevice().access(first);
        return;
    }

    // quotaExhaustion: grant quota+1 pages under the quota capability,
    // touch the first quota pages legitimately, and probe the one that
    // exceeds the per-ASID budget.
    for (unsigned i = 0; i <= quota; ++i) {
        const Addr p = ppn + i;
        bc->onTranslation(asid, p, p, Perms{true, false}, false);
        table->setCapability(p, Capability{false, false, true}, asid);
    }
    quotaChains_.emplace_back();
    std::function<void(unsigned)> *issue_next = &quotaChains_.back();
    *issue_next = [this, ppn, asid, quota, issue_next](unsigned i) {
        const bool probe = i == quota;
        const Tick start = system_.eventQueue().curTick();
        auto pkt = system_.packetPool().make(MemCmd::Read,
                                             pageBase(ppn + i), 64,
                                             Requestor::accelerator,
                                             asid);
        pkt->issuedAt = start;
        pkt->onResponse = [this, probe, start, i,
                           issue_next](Packet &p) {
            if (!probe) {
                (*issue_next)(i + 1);
                return;
            }
            Outcome outcome;
            outcome.responded = true;
            outcome.blocked = p.denied;
            outcome.latency = system_.eventQueue().curTick() - start;
            record(outcome);
            asyncOutcomes_.push_back(outcome);
        };
        system_.borderDevice().access(pkt);
    };
    (*issue_next)(0);
}

void
AttackInjector::scheduleAttackAt(Tick when, AttackKind kind, Addr addr,
                                 Asid asid)
{
    system_.eventQueue().scheduleLambda(
        [this, kind, addr, asid]() {
            const Tick start = system_.eventQueue().curTick();
            ++injected_;

            if (kind == AttackKind::readOnceReplay ||
                kind == AttackKind::quotaExhaustion) {
                injectCapabilityAttack(kind, addr, asid);
                return;
            }

            if (kind == AttackKind::forgedAsidRead &&
                system_.iommuFrontend() == nullptr) {
                // No translate-at-border front end: the forgery dies
                // (or not) at the ATS the way real traffic would.
                system_.ats().translate(
                    asid, addr, false,
                    [this, start](bool ok, const TlbEntry &) {
                        Outcome outcome;
                        outcome.responded = true;
                        outcome.blocked = !ok;
                        outcome.latency =
                            system_.eventQueue().curTick() - start;
                        record(outcome);
                        asyncOutcomes_.push_back(outcome);
                    });
                return;
            }

            auto pkt = makeAttackPacket(kind, addr, asid);
            pkt->issuedAt = start;
            pkt->onResponse = [this, start](Packet &p) {
                Outcome outcome;
                outcome.responded = true;
                outcome.blocked = p.denied;
                outcome.latency =
                    system_.eventQueue().curTick() - start;
                record(outcome);
                asyncOutcomes_.push_back(outcome);
            };
            system_.borderDevice().access(pkt);
        },
        when);
}

AttackInjector::Outcome
AttackInjector::wildPhysicalRead(Addr paddr)
{
    return inject(makeAttackPacket(AttackKind::wildRead, paddr, 0), true);
}

AttackInjector::Outcome
AttackInjector::wildPhysicalWrite(Addr paddr)
{
    return inject(makeAttackPacket(AttackKind::wildWrite, paddr, 0),
                  true);
}

AttackInjector::Outcome
AttackInjector::staleWriteback(Addr paddr)
{
    return inject(makeAttackPacket(AttackKind::staleWriteback, paddr, 0),
                  true);
}

AttackInjector::Outcome
AttackInjector::forgedAsidRead(Asid asid, Addr vaddr)
{
    if (system_.iommuFrontend() != nullptr) {
        return inject(
            makeAttackPacket(AttackKind::forgedAsidRead, vaddr, asid),
            true);
    }

    // Configurations without a translate-at-border front end route
    // virtual requests through the ATS the way the accelerator would;
    // a forged ASID fails translation there.
    Outcome outcome;
    const Tick start = system_.eventQueue().curTick();
    bool done = false;
    ++injected_;
    system_.ats().translate(asid, vaddr, false,
                            [&](bool ok, const TlbEntry &) {
                                done = true;
                                outcome.responded = true;
                                outcome.blocked = !ok;
                                outcome.latency =
                                    system_.eventQueue().curTick() -
                                    start;
                            });
    system_.eventQueue().run();
    if (!done)
        outcome.responded = false;
    record(outcome);
    return outcome;
}

} // namespace bctrl
