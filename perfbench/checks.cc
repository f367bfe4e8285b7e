#include <cctype>
#include <cstdlib>
#include <map>
#include <utility>

#include "bench.hh"

namespace bctrl::perfbench {

namespace {

Failure
fail(Check check, const std::string &label, const std::string &what,
     double got, double want)
{
    return {check,
            label + ": " + what + " (got " + std::to_string(got) +
                ", expected " + std::to_string(want) + ")",
            got, want};
}

/** Skip a JSON string starting at s[i] == '"'; returns one past it. */
std::size_t
skipString(const std::string &s, std::size_t i)
{
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\')
            ++i;
        else if (s[i] == '"')
            return i + 1;
    }
    return s.size();
}

} // namespace

StatMap
parseFlatStats(const std::string &json)
{
    StatMap out;
    std::size_t i = json.find('{');
    if (i == std::string::npos)
        return out;
    ++i;
    while (i < json.size()) {
        const std::size_t key_start = json.find('"', i);
        if (key_start == std::string::npos)
            break;
        const std::size_t key_end = skipString(json, key_start);
        const std::string key =
            json.substr(key_start + 1, key_end - key_start - 2);
        i = json.find(':', key_end);
        if (i == std::string::npos)
            break;
        ++i;
        while (i < json.size() && std::isspace(
                                      static_cast<unsigned char>(json[i])))
            ++i;
        if (i < json.size() && json[i] == '{') {
            // A histogram or distribution: skip the nested object.
            int depth = 0;
            for (; i < json.size(); ++i) {
                if (json[i] == '"') {
                    i = skipString(json, i) - 1;
                } else if (json[i] == '{') {
                    ++depth;
                } else if (json[i] == '}' && --depth == 0) {
                    ++i;
                    break;
                }
            }
        } else {
            char *end = nullptr;
            const double v = std::strtod(json.c_str() + i, &end);
            if (end != json.c_str() + i)
                out[key] = v;
            i = static_cast<std::size_t>(end - json.c_str());
        }
        i = json.find_first_of(",}", i);
        if (i == std::string::npos || json[i] == '}')
            break;
        ++i;
    }
    return out;
}

double
stat(const StatMap &stats, const std::string &key)
{
    const auto it = stats.find(key);
    return it != stats.end() ? it->second : 0.0;
}

namespace {

/** Calls @p f on each stat named prefix + <anything> + suffix. */
template <typename F>
void
forMatching(const StatMap &stats, const std::string &prefix,
            const std::string &suffix, F f)
{
    for (auto it = stats.lower_bound(prefix);
         it != stats.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const std::string &k = it->first;
        if (k.size() >= prefix.size() + suffix.size() &&
            k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0)
            f(it->second);
    }
}

} // namespace

double
statSum(const StatMap &stats, const std::string &prefix,
        const std::string &suffix)
{
    double sum = 0;
    forMatching(stats, prefix, suffix, [&sum](double v) { sum += v; });
    return sum;
}

std::size_t
statCount(const StatMap &stats, const std::string &prefix,
          const std::string &suffix)
{
    std::size_t n = 0;
    forMatching(stats, prefix, suffix, [&n](double) { ++n; });
    return n;
}

std::vector<Failure>
checkPoint(const PointRecord &rec, std::uint64_t mem_bytes_per_sec)
{
    std::vector<Failure> bad;
    const RunResult &r = rec.result;
    const StatMap &s = rec.stats;

    if (r.hung)
        bad.push_back({Check::hung, rec.label + ": run hung"});

    // A renamed or missing stat would read 0 and make the comparisons
    // below 0 == 0: every key they read must be in the dump.
    std::vector<std::string> keys = {
        "system.gpu.memOps",      "system.bus.packets",
        "system.bus.bytes",       "system.coherence.requests",
        "system.mem.readReqs",    "system.mem.writeReqs",
        "system.mem.bytesRead",   "system.mem.bytesWritten"};
    if (rec.attacked && !rec.control)
        keys.push_back("system.gpu.deniedOps");
    for (const std::string &key : keys) {
        if (s.count(key) == 0)
            bad.push_back({Check::missingStat,
                           rec.label + ": stat " + key + " missing"});
    }
    if (rec.accelTlbs &&
        (statCount(s, "system.gpu.cu", ".l1tlb.hits") == 0 ||
         statCount(s, "system.gpu.cu", ".l1tlb.misses") == 0))
        bad.push_back({Check::missingStat,
                       rec.label + ": per-CU L1-TLB stats missing"});

    // The generator is deterministic for (name, scale, seed, shape):
    // the GPU must have issued exactly the items an independent
    // instance yields.
    if (r.memOps != rec.expectedMemOps)
        bad.push_back(fail(Check::memOps, rec.label,
                           "memOps differs from the drained generator",
                           double(r.memOps), double(rec.expectedMemOps)));
    if (stat(s, "system.gpu.memOps") != double(r.memOps))
        bad.push_back(fail(Check::statsMemOps, rec.label,
                           "stats dump memOps differs from RunResult",
                           stat(s, "system.gpu.memOps"), double(r.memOps)));

    // Conservation along the trusted memory path: every bus packet is
    // one coherence request and one DRAM request, byte for byte.
    const double bus_packets = stat(s, "system.bus.packets");
    const double coh_requests = stat(s, "system.coherence.requests");
    const double dram_requests = stat(s, "system.mem.readReqs") +
                                 stat(s, "system.mem.writeReqs");
    const double dram_bytes = stat(s, "system.mem.bytesRead") +
                              stat(s, "system.mem.bytesWritten");
    if (bus_packets != coh_requests)
        bad.push_back(fail(Check::busCoherence, rec.label,
                           "bus packets != coherence requests", bus_packets,
                           coh_requests));
    if (bus_packets != dram_requests)
        bad.push_back(fail(Check::busDramRequests, rec.label,
                           "bus packets != DRAM requests", bus_packets,
                           dram_requests));
    if (stat(s, "system.bus.bytes") != dram_bytes)
        bad.push_back(fail(Check::busDramBytes, rec.label,
                           "bus bytes != DRAM bytes",
                           stat(s, "system.bus.bytes"), dram_bytes));
    if (double(r.dramBytes) != dram_bytes)
        bad.push_back(fail(Check::resultDramBytes, rec.label,
                           "RunResult dramBytes != DRAM stats",
                           double(r.dramBytes), dram_bytes));

    // Every GPU access looks up its CU's L1 TLB exactly once.
    if (rec.accelTlbs) {
        const double lookups =
            statSum(s, "system.gpu.cu", ".l1tlb.hits") +
            statSum(s, "system.gpu.cu", ".l1tlb.misses");
        if (lookups != double(r.memOps))
            bad.push_back(fail(Check::l1TlbLookups, rec.label,
                               "L1-TLB lookups != memOps", lookups,
                               double(r.memOps)));
    }

    // DRAM cannot be busier than 100%, nor move bytes faster than its
    // bandwidth.
    if (!(r.dramUtilization <= 1.0))
        bad.push_back(fail(Check::dramUtilization, rec.label,
                           "DRAM utilization above 1", r.dramUtilization,
                           1.0));
    const double min_ticks = double(r.dramBytes) /
                             double(mem_bytes_per_sec) *
                             double(ticksPerSecond);
    if (double(r.runtimeTicks) < min_ticks)
        bad.push_back(fail(Check::dramBandwidth, rec.label,
                           "runtime below DRAM bytes / bandwidth",
                           double(r.runtimeTicks), min_ticks));

    if (rec.attacked) {
        if (rec.attackedFramesMapped != 0)
            bad.push_back(fail(Check::attackedFrameMapped, rec.label,
                               "attacked frames are mapped",
                               double(rec.attackedFramesMapped), 0));
        if (rec.attacksInjected != rec.attacksPlanned)
            bad.push_back(fail(Check::attacksInjected, rec.label,
                               "attacks injected",
                               double(rec.attacksInjected),
                               double(rec.attacksPlanned)));
        if (rec.control) {
            // The unsafe baseline must let the very same attacks
            // through, or the blocked counts elsewhere prove nothing.
            if (rec.attacksUnblocked != rec.attacksInjected)
                bad.push_back(fail(Check::controlUnblocked, rec.label,
                                   "control: attacks unblocked",
                                   double(rec.attacksUnblocked),
                                   double(rec.attacksInjected)));
        } else {
            if (rec.attacksBlocked != rec.attacksInjected)
                bad.push_back(fail(Check::attacksBlocked, rec.label,
                                   "attacks blocked",
                                   double(rec.attacksBlocked),
                                   double(rec.attacksInjected)));
            // Only the attacks may be denied: no legitimate request.
            if (r.violations != rec.attacksBlocked)
                bad.push_back(fail(Check::violations, rec.label,
                                   "violations != blocked attacks",
                                   double(r.violations),
                                   double(rec.attacksBlocked)));
            if (stat(s, "system.gpu.deniedOps") != 0)
                bad.push_back(fail(Check::legitDenied, rec.label,
                                   "legitimate GPU requests denied",
                                   stat(s, "system.gpu.deniedOps"), 0));
        }
    }
    return bad;
}

std::vector<Failure>
checkIommuSlowerThanAts(const std::vector<PointRecord> &recs)
{
    std::map<std::pair<std::string, int>, const RunResult *> ats, iommu;
    for (const PointRecord &rec : recs) {
        const auto key = std::make_pair(rec.result.workload,
                                        int(rec.result.profile));
        if (rec.result.safety == SafetyModel::atsOnlyIommu)
            ats[key] = &rec.result;
        else if (rec.result.safety == SafetyModel::fullIommu)
            iommu[key] = &rec.result;
    }
    std::vector<Failure> bad;
    if (ats.empty() || ats.size() != iommu.size())
        bad.push_back({Check::iommuOrder,
                       "sweep: ATS-only and full-IOMMU points do not pair"});
    for (const auto &[key, base] : ats) {
        const auto it = iommu.find(key);
        if (it == iommu.end())
            continue;
        if (!(it->second->runtimeTicks > base->runtimeTicks))
            bad.push_back(fail(Check::iommuOrder,
                               key.first + " " +
                                   gpuProfileName(GpuProfile(key.second)),
                               "full-IOMMU not slower than ATS-only",
                               double(it->second->runtimeTicks),
                               double(base->runtimeTicks)));
    }
    return bad;
}

std::vector<Failure>
checkSameSimStats(const PointRecord &reference, const PointRecord &rerun)
{
    if (reference.simStats == rerun.simStats &&
        reference.result.runtimeTicks == rerun.result.runtimeTicks)
        return {};
    return {{Check::simStats, reference.label +
                                  ": simulated statistics differ between "
                                  "two runs of the same point"}};
}

bool
onlyKnownDowngradeFault(const std::vector<Failure> &bad)
{
    for (const Failure &f : bad) {
        const bool known =
            f.check == Check::legitDenied ||
            (f.check == Check::violations && f.got == f.want + 1);
        if (!known)
            return false;
    }
    return true;
}

} // namespace bctrl::perfbench
