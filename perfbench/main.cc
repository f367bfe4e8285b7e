/**
 * @file
 * Benchmark program: runs one workload for a fixed host time in whole
 * rounds, checks every simulated point's outputs, and prints the
 * end-to-end metrics (or, with --trace 1, the per-layer metrics of a
 * separate traced round) as one JSON line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Run it from the root of the checkout: --trace 1 writes its Chrome
 * trace to .bench_build/traces/NAME-seedN.json there.
 *
 * Workloads (README.md explains the choice):
 *   paper-sweep      Figure 4 matrix, 7 proxies x 5 safety models x
 *                    2 GPU profiles, thread-per-point via SweepEngine
 *   lud-bcc-long     one long serial lud run on bc-bcc
 *   downgrade-storm  hotspot under back-to-back permission downgrades
 *                    with seeded wild physical attacks
 */

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bc/attack.hh"
#include "bench.hh"
#include "config/system_builder.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sweep.hh"
#include "workloads/workload.hh"

using namespace bctrl;
using namespace bctrl::perfbench;

namespace {

/** lud at scale 2 is a 1 MB matrix: 4x the 256 KB GPU L2. */
constexpr std::uint64_t ludScale = 2;
/** hotspot at scale 2: three 192 KB grids, 144 pages, past the L2. */
constexpr std::uint64_t stormScale = 2;
/** Downgrades per simulated second: one in flight at all times. */
constexpr double stormDowngradesPerSecond = 1e7;
/** Wild reads plus wild writes fired into every storm point. */
constexpr unsigned stormAttacks = 8;
/**
 * Attacks fire inside the first 200 us of simulated time; every storm
 * point runs longer than that, so each one lands mid-kernel.
 */
constexpr Tick attackWindowTicks = 200'000'000;
/** Sweep workers: fixed, but never more than the host has. */
constexpr unsigned sweepWorkers = 4;

struct Attack {
    Tick when = 0;
    AttackKind kind = AttackKind::wildRead;
    Addr paddr = 0;
};

struct Point {
    std::string workload;
    SystemConfig config;
    std::vector<Attack> attacks;
    /** ATS-only control: the attacks must get through. */
    bool control = false;
    std::string label;
};

struct Plan {
    std::vector<Point> points;
    unsigned jobs = 1;
    /** Rounds go through SweepEngine (else serial, in this file). */
    bool sweepEngine = false;
    /** The point whose streams the layer replays use. */
    std::size_t replayPoint = 0;
};

std::string
labelOf(const Point &p)
{
    return p.workload + " " + safetyModelName(p.config.safety) + " " +
           gpuProfileName(p.config.profile) +
           (p.config.selectiveFlush ? " selective" : "");
}

Plan
makePlan(const std::string &name, std::uint64_t seed)
{
    Plan plan;
    SystemConfig base;
    base.seed = seed;
    auto add = [&plan](const std::string &wl, const SystemConfig &cfg) {
        Point p;
        p.workload = wl;
        p.config = cfg;
        p.label = labelOf(p);
        plan.points.push_back(std::move(p));
    };

    if (name == "paper-sweep") {
        const SafetyModel safeties[] = {
            SafetyModel::atsOnlyIommu, SafetyModel::fullIommu,
            SafetyModel::capiLike, SafetyModel::borderControlNoBcc,
            SafetyModel::borderControlBcc};
        for (GpuProfile profile : {GpuProfile::highlyThreaded,
                                   GpuProfile::moderatelyThreaded}) {
            for (const std::string &wl : rodiniaWorkloadNames()) {
                for (SafetyModel safety : safeties) {
                    SystemConfig cfg = base;
                    cfg.safety = safety;
                    cfg.profile = profile;
                    if (wl == "bfs" &&
                        safety == SafetyModel::borderControlNoBcc &&
                        profile == GpuProfile::highlyThreaded)
                        plan.replayPoint = plan.points.size();
                    add(wl, cfg);
                }
            }
        }
        const unsigned hw = std::thread::hardware_concurrency();
        plan.jobs = std::max(1u, std::min(sweepWorkers, hw));
        plan.sweepEngine = true;
    } else if (name == "lud-bcc-long") {
        SystemConfig cfg = base;
        cfg.safety = SafetyModel::borderControlBcc;
        cfg.workloadScale = ludScale;
        add("lud", cfg);
    } else if (name == "downgrade-storm") {
        SystemConfig cfg = base;
        cfg.workloadScale = stormScale;
        cfg.downgradesPerSecond = stormDowngradesPerSecond;
        // Seeded wild accesses into the top half of physical memory,
        // which the bottom-up frame allocator never hands out (each
        // point re-proves it by walking the page table).
        Random rng(seed * 0x9e3779b97f4a7c15ULL + 0xa77ac);
        std::vector<Attack> attacks;
        const Addr half_frames = cfg.physMemBytes / 2 / pageSize;
        for (unsigned i = 0; i < stormAttacks; ++i) {
            Attack a;
            a.when = 1'000'000 + i * (attackWindowTicks / stormAttacks);
            a.kind = i % 2 == 0 ? AttackKind::wildRead
                                : AttackKind::wildWrite;
            a.paddr = cfg.physMemBytes / 2 +
                      rng.nextBounded(half_frames) * pageSize +
                      rng.nextBounded(pageSize / blockSize) * blockSize;
            attacks.push_back(a);
        }
        struct Variant { SafetyModel safety; bool selective; };
        const Variant variants[] = {
            {SafetyModel::borderControlBcc, false},
            {SafetyModel::borderControlBcc, true},
            {SafetyModel::borderControlNoBcc, false},
            {SafetyModel::atsOnlyIommu, false},
        };
        for (const Variant &v : variants) {
            cfg.safety = v.safety;
            cfg.selectiveFlush = v.selective;
            add("hotspot", cfg);
            plan.points.back().attacks = attacks;
            plan.points.back().control =
                v.safety == SafetyModel::atsOnlyIommu;
        }
    }
    return plan;
}

/** A point's machine, built and set up, ready for System::run. */
struct Prepared {
    std::unique_ptr<System> sys;
    std::unique_ptr<AttackInjector> injector;
    std::unique_ptr<Workload> workload;
    Process *proc = nullptr;
    std::int64_t buildStart = 0;
    std::int64_t buildNs = 0;
    std::int64_t setupNs = 0;
};

Prepared
prepare(const Point &p)
{
    Prepared prep;
    prep.buildStart = nowNs();
    prep.sys = std::make_unique<System>(p.config);
    const std::int64_t t1 = nowNs();
    prep.workload = makeWorkload(p.workload, p.config.workloadScale,
                                 p.config.seed);
    prep.proc = &prep.sys->kernel().createProcess();
    prep.workload->setup(*prep.proc);
    const std::int64_t t2 = nowNs();
    prep.buildNs = t1 - prep.buildStart;
    prep.setupNs = t2 - t1;
    if (!p.attacks.empty()) {
        prep.injector = std::make_unique<AttackInjector>(*prep.sys);
        prep.sys->addStatGroup(&prep.injector->statGroup());
        for (const Attack &a : p.attacks)
            prep.injector->scheduleAttackAt(a.when, a.kind, a.paddr);
    }
    return prep;
}

/** Forwards every call to another workload; subclasses wrap next(). */
class ForwardingWorkload : public Workload
{
  public:
    explicit ForwardingWorkload(Workload &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    void setup(Process &proc) override { inner_.setup(proc); }
    void
    bind(unsigned num_cus, unsigned wfs_per_cu) override
    {
        inner_.bind(num_cus, wfs_per_cu);
    }
    WorkItem
    next(unsigned cu, unsigned wf) override
    {
        return inner_.next(cu, wf);
    }
    std::uint64_t
    totalMemItems() const override
    {
        return inner_.totalMemItems();
    }

  protected:
    Workload &inner_;
};

/** Times every Workload::next call. */
class TimedWorkload : public ForwardingWorkload
{
  public:
    using ForwardingWorkload::ForwardingWorkload;

    WorkItem
    next(unsigned cu, unsigned wf) override
    {
        const std::int64_t t0 = nowNs();
        const WorkItem item = inner_.next(cu, wf);
        ns_ += nowNs() - t0;
        ++calls_;
        return item;
    }

    std::int64_t ns() const { return ns_; }
    std::uint64_t calls() const { return calls_; }

  private:
    std::int64_t ns_ = 0;
    std::uint64_t calls_ = 0;
};

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * Forwards to a workload and stamps the host clocks at the start, every
 * lapCalls calls of Workload::next, and the end. The simulation is
 * deterministic, so lap k of one round covers the same simulated work
 * as lap k of any other round.
 */
class LapWorkload : public ForwardingWorkload
{
  public:
    /** About a millisecond of lud or hotspot simulation. */
    static constexpr std::uint64_t lapCalls = 1 << 10;

    using ForwardingWorkload::ForwardingWorkload;

    WorkItem
    next(unsigned cu, unsigned wf) override
    {
        if (++calls_ % lapCalls == 0)
            stamp();
        return inner_.next(cu, wf);
    }

    void stamp() { stamps_.push_back({nowNs(), cpuSeconds()}); }

    /** Wall and CPU seconds of each lap between consecutive stamps. */
    void
    laps(std::vector<double> &wall_s, std::vector<double> &cpu_s) const
    {
        for (std::size_t i = 1; i < stamps_.size(); ++i) {
            wall_s.push_back(
                double(stamps_[i].wallNs - stamps_[i - 1].wallNs) * 1e-9);
            cpu_s.push_back(stamps_[i].cpuS - stamps_[i - 1].cpuS);
        }
    }

  private:
    struct Stamp {
        std::int64_t wallNs;
        double cpuS;
    };
    std::uint64_t calls_ = 0;
    std::vector<Stamp> stamps_;
};

/**
 * Border Control points of the storm deny legitimate GPU requests on
 * every seed: a fault of the downgrade path (CHANGES.md, FOUND). They
 * count as failed operations, but only that fault is excused on them;
 * any other failure, there or anywhere, makes the result incorrect.
 */
bool
hasDowngradeFault(const Point &p)
{
    return p.config.downgradesPerSecond > 0 &&
           (p.config.safety == SafetyModel::borderControlBcc ||
            p.config.safety == SafetyModel::borderControlNoBcc);
}

bool
hasAccelTlbs(SafetyModel s)
{
    return s != SafetyModel::fullIommu && s != SafetyModel::capiLike;
}

/** Dumps and attack outcomes of a finished point. */
PointRecord
collect(const Point &p, Prepared &prep, const RunResult &result)
{
    PointRecord rec;
    rec.label = p.label;
    rec.result = result;
    rec.accelTlbs = hasAccelTlbs(p.config.safety);
    rec.hostEvents = prep.sys->eventQueue().eventsProcessed();
    std::ostringstream js;
    prep.sys->dumpStatsJson(js);
    rec.stats = parseFlatStats(js.str());
    std::ostringstream ss;
    prep.sys->dumpSimStats(ss);
    rec.simStats = ss.str();
    if (prep.injector) {
        rec.attacked = true;
        rec.control = p.control;
        rec.attacksPlanned = p.attacks.size();
        rec.attacksInjected = prep.injector->injected();
        rec.attacksBlocked = prep.injector->blocked();
        rec.attacksUnblocked = prep.injector->unblocked();
        // Walk the process's page table over every mapped page: no
        // attacked frame may back any of them.
        std::unordered_set<Addr> mapped;
        const PageTable &pt = prep.proc->pageTable();
        for (Addr vpn : prep.proc->mappedVpns()) {
            const WalkResult w = pt.walk(pageBase(vpn));
            if (w.valid)
                mapped.insert(pageNumber(w.paddr));
        }
        for (const Attack &a : p.attacks)
            rec.attackedFramesMapped += mapped.count(pageNumber(a.paddr));
    }
    return rec;
}

PointRecord
fromOutcome(const Point &p, const SweepOutcome &out)
{
    PointRecord rec;
    rec.label = p.label;
    rec.result = out.result;
    rec.accelTlbs = hasAccelTlbs(p.config.safety);
    rec.hostEvents = out.hostEvents;
    rec.stats = parseFlatStats(out.statsJson);
    rec.simStats = out.simStatsDump;
    return rec;
}

/**
 * Memory items of an independent instance of the point's generator
 * (same name, scale, seed and machine shape), drained round-robin
 * across wavefronts on a machine of its own. Optionally records the
 * access stream for the layer replays.
 */
std::uint64_t
drainMemItems(const Point &p, std::vector<Access> *stream)
{
    System sys(p.config);
    auto wl = makeWorkload(p.workload, p.config.workloadScale,
                           p.config.seed);
    wl->setup(sys.kernel().createProcess());
    const unsigned cus = p.config.numCus();
    const unsigned wfs = p.config.wfsPerCu();
    wl->bind(cus, wfs);
    std::vector<char> live(std::size_t(cus) * wfs, 1);
    std::size_t remaining = live.size();
    std::uint64_t items = 0;
    while (remaining != 0) {
        for (unsigned cu = 0; cu < cus; ++cu) {
            for (unsigned wf = 0; wf < wfs; ++wf) {
                char &l = live[std::size_t(cu) * wfs + wf];
                if (!l)
                    continue;
                const WorkItem it = wl->next(cu, wf);
                if (it.kind == WorkItem::Kind::end) {
                    l = 0;
                    --remaining;
                } else if (it.kind == WorkItem::Kind::mem &&
                           !it.speculative) {
                    ++items;
                    if (stream)
                        stream->push_back({it.vaddr, cu, it.write});
                }
            }
        }
    }
    return items;
}

/** Expected memOps per distinct generator, drained once per process. */
class Expectations
{
  public:
    std::uint64_t
    memOps(const Point &p)
    {
        const std::string key =
            p.workload + "/" + std::to_string(p.config.workloadScale) +
            "/" + std::to_string(p.config.seed) + "/" +
            std::to_string(p.config.numCus()) + "x" +
            std::to_string(p.config.wfsPerCu());
        auto it = cache_.find(key);
        if (it == cache_.end())
            it = cache_.emplace(key, drainMemItems(p, nullptr)).first;
        return it->second;
    }

  private:
    std::map<std::string, std::uint64_t> cache_;
};

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One untraced round: every point of the plan once. */
struct Round {
    double wallS = 0;
    std::uint64_t memOps = 0;
    /** Serial rounds: wall and CPU seconds of every lap of every point. */
    std::vector<double> lapWallS;
    std::vector<double> lapCpuS;
    /** Host seconds each point occupied a worker. */
    std::vector<double> pointS;
    /** Sweep rounds: the worker thread that ran each point. */
    std::vector<std::thread::id> pointWorker;
    /** Worker time not spent on a point: jobs * elapsed - sum(pointS). */
    double idleS = 0;
    std::vector<PointRecord> recs;
};

Round
runRound(const Plan &plan, std::vector<Prepared> prepared)
{
    Round round;
    if (plan.sweepEngine) {
        round.pointWorker.resize(plan.points.size());
        std::vector<SweepPoint> sps;
        for (const Point &p : plan.points) {
            SweepPoint sp;
            sp.workload = p.workload;
            sp.config = p.config;
            // Each point writes only its own slot.
            sp.prepare = [&round](System &, std::size_t index) {
                round.pointWorker[index] = std::this_thread::get_id();
            };
            sps.push_back(std::move(sp));
        }
        SweepOptions opts;
        opts.jobs = plan.jobs;
        opts.captureStatsJson = true;
        opts.captureSimStats = true;
        SweepEngine engine(opts);
        const std::int64_t t0 = nowNs();
        const std::vector<SweepOutcome> outs = engine.run(sps);
        round.wallS = double(nowNs() - t0) * 1e-9;
        double busy = 0;
        for (std::size_t i = 0; i < outs.size(); ++i) {
            round.recs.push_back(fromOutcome(plan.points[i], outs[i]));
            round.pointS.push_back(outs[i].hostSeconds);
            busy += outs[i].hostSeconds;
        }
        round.idleS = plan.jobs * round.wallS - busy;
    } else {
        if (prepared.empty()) {
            for (const Point &p : plan.points)
                prepared.push_back(prepare(p));
        }
        const std::int64_t r0 = nowNs();
        double busy = 0;
        for (std::size_t i = 0; i < plan.points.size(); ++i) {
            Prepared &prep = prepared[i];
            LapWorkload lapped(*prep.workload);
            const std::int64_t p0 = nowNs();
            lapped.stamp();
            const RunResult result = prep.sys->run(lapped, *prep.proc);
            lapped.stamp();
            const std::int64_t p1 = nowNs();
            round.wallS += double(p1 - p0) * 1e-9;
            lapped.laps(round.lapWallS, round.lapCpuS);
            round.recs.push_back(collect(plan.points[i], prep, result));
            const double point_s = double(nowNs() - p0) * 1e-9;
            round.pointS.push_back(point_s);
            busy += point_s;
        }
        round.idleS = double(nowNs() - r0) * 1e-9 - busy;
    }
    for (const PointRecord &rec : round.recs)
        round.memOps += rec.result.memOps;
    return round;
}

/** Per-point output of the traced round. */
struct TracedPoint {
    PointRecord rec;
    std::int64_t buildNs = 0;
    std::int64_t setupNs = 0;
    std::int64_t runNs = 0;
    std::int64_t nextNs = 0;
    std::uint64_t nextCalls = 0;
};

struct DrivenRound {
    std::vector<TracedPoint> points;
    double wallS = 0;
    SpanLog log;
    /** Replay point's machine, kept for its page table. */
    Prepared replayMachine;
    /** PPNs of every border check of the replay point. */
    std::vector<Addr> ppns;
};

/**
 * One round driven from this file on the plan's number of workers,
 * since SweepEngine runs a point by workload name and so cannot time
 * inside it. When @p traced, each step is bracketed by a span,
 * Workload::next is timed through TimedWorkload, and the replay point's
 * border checks are recorded with the check-trace hook; an untraced
 * driven round is the baseline of the tracing overhead.
 */
void
runDrivenRound(const Plan &plan, bool traced, DrivenRound &tr)
{
    tr.points.resize(plan.points.size());
    std::vector<SpanLog> logs;
    for (unsigned t = 0; t < plan.jobs; ++t)
        logs.emplace_back(t + 1);
    std::atomic<std::size_t> next{0};
    auto worker = [&](unsigned tid) {
        SpanLog &log = logs[tid];
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= plan.points.size())
                return;
            const Point &p = plan.points[i];
            TracedPoint &out = tr.points[i];
            const std::int64_t p0 = nowNs();
            Prepared prep = prepare(p);
            out.buildNs = prep.buildNs;
            out.setupNs = prep.setupNs;
            if (!traced) {
                const std::int64_t r0 = nowNs();
                const RunResult result =
                    prep.sys->run(*prep.workload, *prep.proc);
                out.runNs = nowNs() - r0;
                out.rec = collect(p, prep, result);
                continue;
            }
            log.add("System::System", prep.buildStart, prep.buildNs,
                    p.label);
            log.add("Workload::setup", prep.buildStart + prep.buildNs,
                    prep.setupNs, p.label);
            const bool replay = i == plan.replayPoint;
            if (replay && prep.sys->borderControl() != nullptr) {
                prep.sys->borderControl()->setCheckTraceHook(
                    [&tr](Addr ppn) { tr.ppns.push_back(ppn); });
            }
            TimedWorkload timed(*prep.workload);
            const std::int64_t r0 = nowNs();
            const RunResult result = prep.sys->run(timed, *prep.proc);
            const std::int64_t r1 = nowNs();
            log.add("System::run", r0, r1 - r0, p.label);
            log.add("Workload::next (aggregated)", r0, timed.ns(),
                    std::to_string(timed.calls()) + " calls");
            out.rec = collect(p, prep, result);
            log.add("collect", r1, nowNs() - r1, p.label);
            log.add("point", p0, nowNs() - p0, p.label);
            out.runNs = r1 - r0;
            out.nextNs = timed.ns();
            out.nextCalls = timed.calls();
            if (replay) {
                if (prep.sys->borderControl() != nullptr)
                    prep.sys->borderControl()->setCheckTraceHook(nullptr);
                tr.replayMachine = std::move(prep);
            }
        }
    };
    const std::int64_t t0 = nowNs();
    if (plan.jobs <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < plan.jobs; ++t)
            threads.emplace_back(worker, t);
        for (std::thread &t : threads)
            t.join();
    }
    const std::int64_t t1 = nowNs();
    if (plan.sweepEngine) {
        tr.wallS = double(t1 - t0) * 1e-9;
    } else {
        for (const TracedPoint &tp : tr.points)
            tr.wallS += double(tp.runNs) * 1e-9;
    }
    if (traced)
        tr.log.add("traced round", t0, t1 - t0);
    for (const SpanLog &log : logs)
        tr.log.append(log);
}

/**
 * The least disturbed host time of a run's work. A round repeats
 * identical simulated work, so the host time it takes varies only with
 * interference from the rest of the host, which comes and goes within
 * a round. Serial rounds are cut into laps of identical work; wall and
 * CPU seconds sum each lap's fastest time over the rounds. Sweep points
 * each run alone on one worker thread: CPU seconds sum each point's
 * fastest time, and wall seconds are the makespan of a round's own
 * assignment of points to workers at those times, lowest over rounds.
 * @return false when the rounds did not repeat the same work.
 */
bool
leastDisturbed(const Plan &plan, const std::vector<Round> &rounds,
               double &wall_s, double &cpu_s)
{
    const Round &first = rounds.front();
    if (plan.sweepEngine) {
        std::vector<double> best = first.pointS;
        for (const Round &r : rounds) {
            for (std::size_t i = 0; i < best.size(); ++i)
                best[i] = std::min(best[i], r.pointS[i]);
        }
        cpu_s = 0;
        for (double b : best)
            cpu_s += b;
        wall_s = cpu_s;
        for (const Round &r : rounds) {
            std::map<std::thread::id, double> busy;
            for (std::size_t i = 0; i < best.size(); ++i)
                busy[r.pointWorker[i]] += best[i];
            double makespan = 0;
            for (const auto &[worker, s] : busy)
                makespan = std::max(makespan, s);
            wall_s = std::min(wall_s, makespan);
        }
        return true;
    }
    std::vector<double> lap_wall = first.lapWallS;
    std::vector<double> lap_cpu = first.lapCpuS;
    for (const Round &r : rounds) {
        if (r.lapWallS.size() != lap_wall.size())
            return false;
        for (std::size_t i = 0; i < lap_wall.size(); ++i) {
            lap_wall[i] = std::min(lap_wall[i], r.lapWallS[i]);
            lap_cpu[i] = std::min(lap_cpu[i], r.lapCpuS[i]);
        }
    }
    wall_s = 0;
    cpu_s = 0;
    for (std::size_t i = 0; i < lap_wall.size(); ++i) {
        wall_s += lap_wall[i];
        cpu_s += lap_cpu[i];
    }
    return true;
}

struct Metric {
    std::string name;
    double value = 0;
    const char *unit = "";
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper-sweep|lud-bcc-long|"
                 "downgrade-storm --seed N --seconds S --trace 0|1\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t main_ns = nowNs();
    setLogVerbose(false);

    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (arg == "--trace")
            traced = std::strcmp(val, "0") != 0;
        else
            return usage(argv[0]);
    }
    const Plan plan = makePlan(workload, seed);
    if (plan.points.empty() || !(seconds > 0))
        return usage(argv[0]);

    // One cold set-up, the process's first: System construction plus
    // Workload::setup, summed over the first round's points. Later
    // rounds set up warm and are not timed. The sweep engine builds its
    // own Systems, so the sweep only times the same work and drops it.
    std::vector<Prepared> first;
    std::int64_t setup_ns = 0;
    for (const Point &p : plan.points) {
        Prepared prep = prepare(p);
        setup_ns += prep.buildNs + prep.setupNs;
        if (!plan.sweepEngine)
            first.push_back(std::move(prep));
    }

    // Whole rounds until the time is used; outputs checked after each.
    Expectations expect;
    std::vector<Round> rounds;
    std::vector<PointRecord> reference;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool unexpected = false;
    std::vector<Failure> problems;
    auto check_points = [&](const std::vector<PointRecord> &recs) {
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const Point &p = plan.points[i];
            PointRecord rec = recs[i];
            rec.expectedMemOps = expect.memOps(p);
            std::vector<Failure> bad =
                checkPoint(rec, p.config.memBandwidthBytesPerSec);
            const auto same = checkSameSimStats(reference[i], rec);
            bad.insert(bad.end(), same.begin(), same.end());
            ++attempted;
            failed += !bad.empty();
            unexpected |= !bad.empty() && !(hasDowngradeFault(p) &&
                                            onlyKnownDowngradeFault(bad));
            problems.insert(problems.end(), bad.begin(), bad.end());
        }
        if (plan.sweepEngine) {
            // Each violation blames one full-IOMMU point.
            const auto bad = checkIommuSlowerThanAts(recs);
            failed += bad.size();
            unexpected |= !bad.empty();
            problems.insert(problems.end(), bad.begin(), bad.end());
        }
    };
    const std::int64_t measure_start = nowNs();
    do {
        rounds.push_back(runRound(plan, std::move(first)));
        first.clear();
        if (reference.empty())
            reference = rounds.back().recs;
        check_points(rounds.back().recs);
        rounds.back().recs.clear();
    } while (double(nowNs() - measure_start) * 1e-9 < seconds);

    std::vector<double> walls, point_s, idles;
    for (const Round &r : rounds) {
        walls.push_back(r.wallS);
        point_s.insert(point_s.end(), r.pointS.begin(), r.pointS.end());
        idles.push_back(r.idleS);
    }
    double wall = 0;
    double cpu = 0;
    if (!leastDisturbed(plan, rounds, wall, cpu)) {
        unexpected = true;
        problems.push_back(
            {Check::simStats, "rounds differ in Workload::next calls"});
    }

    std::vector<Metric> metrics;
    if (!traced) {
        metrics = {
            {"wall_s", wall, "s"},
            {"cpu_s", cpu, "s"},
            {"setup_s", double(setup_ns) * 1e-9, "s"},
            {"mem_ops_per_s", double(rounds.front().memOps) / wall,
             "ops/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        // The overhead baseline: the same driver without the tracing.
        DrivenRound plain;
        runDrivenRound(plan, false, plain);
        DrivenRound tr;
        runDrivenRound(plan, true, tr);
        for (const DrivenRound *dr : {&plain, &tr}) {
            std::vector<PointRecord> recs;
            for (const TracedPoint &tp : dr->points)
                recs.push_back(tp.rec);
            check_points(recs);
        }

        std::vector<Access> stream;
        const Point &rp = plan.points[plan.replayPoint];
        {
            const std::int64_t d0 = nowNs();
            drainMemItems(rp, &stream);
            tr.log.add("drain workload stream", d0, nowNs() - d0,
                       rp.label);
        }
        const LayerTimes lt =
            replayLayers(rp.config, stream,
                         tr.replayMachine.proc->pageTable(),
                         std::move(tr.ppns),
                         tr.log);

        double events = 0, lambda = 0, mem_ops = 0, cycles = 0;
        double build = 0, setup = 0, run_self = 0, next_ns = 0,
               next_calls = 0;
        double l1h = 0, l1m = 0, l2h = 0, l2m = 0;
        double l1tlbm = 0, l2tlbh = 0, l2tlbm = 0, xlat = 0, walks = 0;
        double bcr = 0, bcch = 0, bccm = 0, ins = 0, tbytes = 0, att = 0,
               blk = 0;
        double dg = 0, sd = 0, pf = 0, dbytes = 0, dreq = 0, pallocs = 0,
               ppeak = 0;
        for (const TracedPoint &tp : tr.points) {
            const RunResult &r = tp.rec.result;
            const StatMap &s = tp.rec.stats;
            events += double(tp.rec.hostEvents);
            lambda += double(r.lambdaPoolAllocs);
            mem_ops += double(r.memOps);
            cycles += r.gpuCycles;
            build += double(tp.buildNs) * 1e-9;
            setup += double(tp.setupNs) * 1e-9;
            run_self += double(tp.runNs - tp.nextNs) * 1e-9;
            next_ns += double(tp.nextNs);
            next_calls += double(tp.nextCalls);
            // GPU L1 counts come from the stats dump: RunResult's
            // l1Hits/l1Misses are never filled in.
            l1h += statSum(s, "system.gpu.cu", ".l1d.hits");
            l1m += statSum(s, "system.gpu.cu", ".l1d.misses");
            l2h += stat(s, "system.gpu.l2.hits");
            l2m += stat(s, "system.gpu.l2.misses");
            l1tlbm += statSum(s, "system.gpu.cu", ".l1tlb.misses");
            l2tlbh += stat(s, "system.ats.l2tlb.hits");
            l2tlbm += stat(s, "system.ats.l2tlb.misses");
            xlat += double(r.translations);
            walks += double(r.pageWalks);
            bcr += double(r.borderRequests);
            bcch += double(r.bccHits);
            bccm += double(r.bccMisses);
            ins += stat(s, "system.bc.insertions");
            tbytes += stat(s, "system.bc.tableTrafficBytes");
            att += double(tp.rec.attacksInjected);
            blk += double(tp.rec.attacksBlocked);
            dg += double(r.downgrades);
            sd += stat(s, "system.kernel.shootdowns");
            // RunResult::pageFaults is never filled in either.
            pf += stat(s, "system.kernel.pageFaults");
            dbytes += double(r.dramBytes);
            dreq += stat(s, "system.mem.readReqs") +
                    stat(s, "system.mem.writeReqs");
            pallocs += double(r.packetPoolAllocs);
            ppeak = std::max(ppeak, double(r.packetPoolPeak));
        }
        const double p50 = median(point_s);
        const double pmax =
            *std::max_element(point_s.begin(), point_s.end());
        metrics = {
            {"sim.events", events, "count"},
            {"sim.events_per_mem_op", events / mem_ops, "events/op"},
            {"sim.events_per_s", events / wall, "events/s"},
            {"sim.lambda_pool_allocs", lambda, "count"},
            {"sim.queue_ns_per_event", lt.queueNsPerEvent, "ns"},
            {"sweep.point_s_p50", p50, "s"},
            {"sweep.point_s_max", pmax, "s"},
            {"sweep.worker_idle_s", median(idles), "s"},
            {"config.build_s", build, "s"},
            {"workloads.setup_s", setup, "s"},
            {"workloads.next_ns_per_item", next_ns / next_calls, "ns"},
            {"gpu.mem_ops", mem_ops, "count"},
            {"gpu.cycles", cycles, "cycles"},
            {"gpu.run_self_s", run_self, "s"},
            {"cache.gpu_l1_hits", l1h, "count"},
            {"cache.gpu_l1_misses", l1m, "count"},
            {"cache.gpu_l2_hits", l2h, "count"},
            {"cache.gpu_l2_misses", l2m, "count"},
            {"cache.tag_probe_ns", lt.tagProbeNs, "ns"},
            {"vm.l1tlb_misses", l1tlbm, "count"},
            {"vm.l2tlb_hits", l2tlbh, "count"},
            {"vm.l2tlb_misses", l2tlbm, "count"},
            {"vm.translations", xlat, "count"},
            {"vm.page_walks", walks, "count"},
            {"vm.tlb_lookup_ns", lt.tlbLookupNs, "ns"},
            {"vm.walk_ns", lt.walkNs, "ns"},
            {"bc.border_requests", bcr, "count"},
            {"bc.bcc_hits", bcch, "count"},
            {"bc.bcc_misses", bccm, "count"},
            {"bc.insertions", ins, "count"},
            {"bc.table_traffic_bytes", tbytes, "B"},
            {"bc.attacks_injected", att, "count"},
            {"bc.attacks_blocked", blk, "count"},
            {"bc.pt_lookup_ns", lt.ptLookupNs, "ns"},
            {"bc.bcc_lookup_ns", lt.bccLookupNs, "ns"},
            {"bc.bcc_fill_ns", lt.bccFillNs, "ns"},
            {"os.downgrades", dg, "count"},
            {"os.shootdowns", sd, "count"},
            {"os.page_faults", pf, "count"},
            {"mem.dram_bytes", dbytes, "B"},
            {"mem.dram_requests", dreq, "count"},
            {"mem.packet_pool_allocs", pallocs, "count"},
            {"mem.packet_pool_peak", ppeak, "count"},
            {"trace.overhead_s", tr.wallS - plain.wallS, "s"},
        };
        const std::string trace_dir = ".bench_build/traces";
        const std::string trace_out = trace_dir + "/" + workload + "-seed" +
                                      std::to_string(seed) + ".json";
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        if (ec || !writeChromeTrace(tr.log, main_ns, trace_out)) {
            std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
            return 1;
        }
    }

    for (const Failure &f : problems)
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.msg.c_str());
    std::fprintf(stderr, "%s: %zu rounds, wall s:", workload.c_str(),
                 rounds.size());
    for (double w : walls)
        std::fprintf(stderr, " %.3f", w);
    std::fprintf(stderr, "; reported %.3f\n", wall);
    printResult(!unexpected, attempted, failed, metrics);
    return 0;
}
