/**
 * @file
 * End-to-end benchmark driver for the simulator.
 *
 * Builds every run's SystemConfig itself and calls the library's
 * public API directly (System, RequestEngine, EventQueue, SweepRunner,
 * TdtzWriter/TdtzReader). run.py in this directory builds it, feeds it
 * the workload and seed, checks its digests and prints the metrics.
 *
 *   perfbench gen-replay OUT.tdtz VARIANT
 *       Write the replay workload's input trace.
 *   perfbench run WORKLOAD VARIANT SECONDS TRACE WORKDIR
 *       TRACE=0: untraced passes through System::run() for
 *       SECONDS, printing per-pass host costs and per-run digests.
 *       TRACE=1: one phased pass with the sampler off, then one with
 *       the program counter sampled; prints per-layer metrics and
 *       writes the sampled PCs to WORKDIR/samples.txt.
 *
 * Output is one JSON object on stdout; run.py consumes it.
 */

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/sweep_runner.hh"
#include "system/system.hh"
#include "trace/tdtz.hh"

namespace
{

using namespace tsim;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Input variants: the driver's seed selects one of these. */
constexpr std::uint64_t numVariants = 16;

/**
 * Replay input parameters. The generator is the benchmark's own
 * (splitmix64 plus modulo mapping), so the trace does not depend on
 * the standard library's <random> distributions or on the simulator.
 */
constexpr std::uint64_t replayRecords = 2000000;
constexpr std::uint64_t replayWritePerMille = 500;
constexpr std::uint64_t replayFootprintOverCache = 6;
constexpr std::uint64_t replayHotDivisor = 8;  ///< hot set: first 1/8
constexpr std::uint64_t replayHotPerMille = 700;
constexpr std::uint64_t replayWarmupRecords = 500000;
constexpr std::uint64_t dcacheBytes = 16ULL << 20;

/** Set-up-only repetitions per untraced run, for a steady setup_s. */
constexpr int setupRepeats = 21;

/** Grid worker cap, so the grid means the same on bigger hosts. */
constexpr unsigned gridMaxWorkers = 4;

std::uint64_t
splitmix64(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
genReplay(const std::string &path, std::uint64_t variant)
{
    const std::uint64_t lines =
        replayFootprintOverCache * dcacheBytes / lineBytes;
    std::uint64_t s = 0x7464726d62656e63ULL ^ (variant + 1);
    TdtzWriter w(path, TdtzCodec::Varint);
    for (std::uint64_t i = 0; i < replayRecords; ++i) {
        ReplayRecord r;
        r.isWrite = splitmix64(s) % 1000 < replayWritePerMille;
        const bool hot = splitmix64(s) % 1000 < replayHotPerMille;
        const std::uint64_t line =
            splitmix64(s) % (hot ? lines / replayHotDivisor : lines);
        r.addr = line * lineBytes;
        r.size = lineBytes;
        r.delta = 0;
        w.append(r);
    }
    w.finish();
}

/**
 * Every SystemConfig field pinned explicitly, except the sharded
 * engine's threads/shardWindow: those keep their defaults (the
 * classic single-queue engine) so the benchmark does not depend on an
 * engine that is being retired.
 */
SystemConfig
pinnedConfig(Design d, PagePolicy page, std::uint64_t ops_per_core,
             std::uint64_t warmup, std::uint64_t seed)
{
    SystemConfig c;
    c.design = d;
    c.dcacheCapacity = dcacheBytes;
    c.dcacheWays = 1;
    c.dcacheChannels = 8;
    c.dcacheBanks = 16;
    c.flushEntries = 16;
    c.predictor = false;
    c.prefetchDegree = 0;
    c.tdramConditionalColumn = true;
    c.dcachePagePolicy = page;
    c.mmChannels = 2;
    c.mmCapacity = 0;
    c.cores.cores = 8;
    c.cores.mlp = 4;
    c.cores.thinkTime = nsToTicks(3);
    c.cores.opsPerCore = ops_per_core;
    c.cores.l1Bytes = 64 * 1024;
    c.cores.l1Ways = 8;
    c.cores.l1Latency = nsToTicks(1);
    c.cores.llcBytes = 2 * 1024 * 1024;
    c.cores.llcWays = 16;
    c.cores.llcLatency = nsToTicks(4);
    c.cores.retryInterval = nsToTicks(4);
    c.warmupOpsPerCore = warmup;
    c.seed = seed;
    c.replay.path.clear();
    c.replay.mode = ReplayMode::Timed;
    c.replay.mlp = 0;
    c.replay.retryInterval = nsToTicks(4);
    c.tracePath.clear();
    c.checkProtocol = false;
    c.maxRuntime = nsToTicks(2.0e9);
    return c;
}

const Design gridDesigns[] = {
    Design::CascadeLake, Design::Alloy,   Design::Bear,
    Design::Ndc,         Design::TicToc,  Design::Banshee,
    Design::Tdram,       Design::Ideal,
};

/** The runs of one workload, in a fixed order. */
struct Workload
{
    std::string name;
    std::vector<SweepJob> jobs;
    unsigned workers = 1;  ///< >1: the jobs run on a SweepRunner
};

Workload
makeWorkload(const std::string &name, std::uint64_t variant,
             const std::string &workdir)
{
    // Variant 0 uses seed 1, the repository's default, so its
    // results match the paper-figure harnesses.
    const std::uint64_t seed = variant + 1;
    Workload w;
    w.name = name;
    if (name == "ref-mgD-tdram") {
        w.jobs.push_back({pinnedConfig(Design::Tdram, PagePolicy::Close,
                                       200000, 150000, seed),
                          findWorkload("mg.D")});
    } else if (name == "grid-fig11") {
        for (Design d : gridDesigns) {
            for (const WorkloadProfile &p : representativeWorkloads()) {
                w.jobs.push_back(
                    {pinnedConfig(d, PagePolicy::Close, 8000, 150000,
                                  seed),
                     p});
            }
        }
        const unsigned hw = std::thread::hardware_concurrency();
        w.workers = std::clamp(hw, 1u, gridMaxWorkers);
    } else if (name == "replay-cl-open") {
        SystemConfig c = pinnedConfig(Design::CascadeLake,
                                      PagePolicy::Open, 0,
                                      replayWarmupRecords, seed);
        c.replay.path =
            workdir + "/replay-" + std::to_string(variant) + ".tdtz";
        c.replay.mode = ReplayMode::Afap;
        c.checkProtocol = true;
        // The profile only names the run; the trace drives it.
        WorkloadProfile p;
        p.name = "replay";
        p.suite = "trace";
        p.kind = GenKind::Random;
        p.footprintScale = replayFootprintOverCache;
        p.storeFraction = replayWritePerMille / 1000.0;
        p.highMiss = true;
        w.jobs.push_back({c, p});
    } else {
        throw std::runtime_error("unknown workload " + name);
    }
    return w;
}

/** FNV-1a 64 over the run's stats dump and report JSON. */
std::string
digestOf(const System &sys, const SimReport &r)
{
    std::ostringstream os;
    sys.dumpStats(os);
    os << "\n" << reportJson(r) << "\n";
    const std::string s = os.str();
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char ch : s)
        h = (h ^ ch) * 1099511628211ULL;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * The SimReport fields reportJson() prints, read through public
 * accessors after a phased run (System::run() assembles the same
 * fields privately). Matching digests prove the two agree.
 */
SimReport
reportOf(System &sys, const WorkloadProfile &wl)
{
    DramCacheCtrl &dc = sys.dcache();
    RequestEngine &eng = sys.engine();
    SimReport r;
    r.workload = wl.name;
    r.design = designName(sys.config().design);
    r.highMiss = wl.highMiss;
    r.runtimeTicks = eng.finishTick();
    r.demandReads = static_cast<std::uint64_t>(dc.demandReads.value());
    r.demandWrites =
        static_cast<std::uint64_t>(dc.demandWrites.value());
    r.missRatio = dc.missRatio();
    r.tagCheckNs = dc.meanTagCheckLatencyNs();
    r.demandReadLatencyNs = eng.meanDemandReadLatencyNs();
    r.bloat = dc.bloatFactor();
    r.cacheBytes = dc.bytesDemandServing.value() +
                   dc.bytesMaintenance.value() +
                   dc.bytesDiscarded.value();
    r.mmBytes = static_cast<double>(sys.mainMemory().bytesMoved());
    for (unsigned c = 0; c < dc.numChannels(); ++c) {
        r.flushStalls += static_cast<std::uint64_t>(
            dc.channel(c).flushBuffer().stalls.value());
        r.probes += static_cast<std::uint64_t>(
            dc.channel(c).probesIssued.value());
    }
    r.predictorPresent = dc.hasPredictor();
    r.predictorAccuracy =
        r.predictorPresent ? dc.predictorAccuracy() : 0.0;
    r.backpressureStalls = eng.backpressureStallCount();
    if (ProtocolChecker *ck = sys.checker()) {
        ck->finish();
        r.checkEvents = ck->eventsChecked();
        r.checkViolations = ck->violationCount();
    }
    return r;
}

/** Host costs and digest of one untraced run. */
struct RunResult
{
    double setupS = 0;
    double runS = 0;
    std::uint64_t demands = 0;
    std::uint64_t violations = 0;
    std::string digest;
};

RunResult
runUntraced(const SweepJob &job)
{
    RunResult rr;
    const auto t0 = Clock::now();
    System sys(job.cfg, job.workload);
    rr.setupS = since(t0);
    const auto t1 = Clock::now();
    const SimReport r = sys.run();
    rr.runS = since(t1);
    rr.demands = r.demandReads + r.demandWrites;
    rr.violations = r.checkViolations;
    rr.digest = digestOf(sys, r);
    return rr;
}

/** Per-run counters of a phased run, read after its event loop. */
struct PhasedResult
{
    double setupS = 0;
    double warmupS = 0;
    double loopS = 0;
    double jobS = 0;
    std::uint64_t events = 0;
    SimReport report;
    std::string digest;

    double llcHits = 0, llcMisses = 0, llcWritebacks = 0;
    double readQDelayNs = 0, mmReadQDelayNs = 0;
    double rowHits = 0, dataActs = 0, chanCmds = 0;
    double probeConflicts = 0;
    std::uint64_t kicks = 0, scans = 0;
};

void
addChannel(PhasedResult &pr, const DramChannel &ch)
{
    pr.kicks += ch.hostKicks;
    pr.scans += ch.hostScanSteps;
    pr.rowHits += ch.rowHits.value();
    pr.dataActs += ch.dataBankActs.value();
    pr.chanCmds += ch.issuedReads.value() + ch.issuedWrites.value() +
                   ch.issuedActRd.value() + ch.issuedActWr.value() +
                   ch.probesIssued.value();
    pr.probeConflicts += ch.probeBankConflicts.value();
}

/**
 * One run driven phase by phase through public calls, with
 * System::run()'s loop exit condition.
 */
PhasedResult
runPhased(const SweepJob &job)
{
    PhasedResult pr;
    const auto t0 = Clock::now();
    auto t = t0;
    System sys(job.cfg, job.workload);
    pr.setupS = since(t);

    t = Clock::now();
    sys.engine().warmup(job.cfg.warmupOpsPerCore);
    sys.engine().start();
    pr.warmupS = since(t);

    t = Clock::now();
    EventQueue &eq = sys.eventQueue();
    RequestEngine &eng = sys.engine();
    DramCacheCtrl &dc = sys.dcache();
    while (!eng.done() || dc.inFlightDemands() > 0 || !dc.quiescent()) {
        if (!eq.step())
            throw std::runtime_error("event queue drained early on " +
                                     job.workload.name);
        ++pr.events;
        if (eq.curTick() > job.cfg.maxRuntime)
            throw std::runtime_error("run exceeded maxRuntime on " +
                                     job.workload.name);
    }
    pr.loopS = since(t);

    pr.report = reportOf(sys, job.workload);
    pr.digest = digestOf(sys, pr.report);
    pr.readQDelayNs = dc.meanReadQueueDelayNs();
    double mm_sum = 0, mm_n = 0;
    for (unsigned c = 0; c < dc.numChannels(); ++c)
        addChannel(pr, dc.channel(c));
    MainMemory &mm = sys.mainMemory();
    for (unsigned c = 0; c < mm.numChannels(); ++c) {
        addChannel(pr, mm.channel(c));
        mm_sum += mm.channel(c).readQueueDelay.sum();
        mm_n += static_cast<double>(mm.channel(c).readQueueDelay.count());
    }
    pr.mmReadQDelayNs = mm_n > 0 ? mm_sum / mm_n : 0.0;
    if (CoreEngine *ce = sys.coreEngine()) {
        pr.llcHits = ce->llc().hits.value();
        pr.llcMisses = ce->llc().misses.value();
        pr.llcWritebacks = ce->llc().writebacks.value();
    }
    pr.jobS = since(t0);
    return pr;
}

/** Run fn(i) for each job, on a SweepRunner when workers > 1. */
template <typename Fn>
void
forEachJob(const Workload &w, Fn fn)
{
    if (w.workers > 1) {
        SweepRunner(w.workers).forEach(w.jobs.size(), fn);
    } else {
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            fn(i);
    }
}

// ---- Program-counter sampler --------------------------------------

constexpr std::size_t maxSamples = 1 << 22;
std::uintptr_t *g_pcs = nullptr;
std::atomic<std::size_t> g_numPcs{0};

extern "C" void
onProfSignal(int, siginfo_t *, void *uc)
{
    const auto *ctx = static_cast<const ucontext_t *>(uc);
#if defined(__x86_64__)
    const auto pc =
        static_cast<std::uintptr_t>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(ctx->uc_mcontext.pc);
#else
#error "program-counter sampling supports x86_64 and aarch64 only"
#endif
    const std::size_t i =
        g_numPcs.fetch_add(1, std::memory_order_relaxed);
    if (i < maxSamples)
        g_pcs[i] = pc;
}

/**
 * Samples the program counter of whichever thread is running, every
 * intervalUs of process CPU time (SIGPROF), from outside the code
 * under test.
 */
class PcSampler
{
  public:
    static constexpr long intervalUs = 1000;

    PcSampler() : _pcs(maxSamples)
    {
        g_pcs = _pcs.data();
        g_numPcs.store(0);
        struct sigaction sa = {};
        sa.sa_sigaction = onProfSignal;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGPROF, &sa, nullptr);
        itimerval it = {};
        it.it_interval.tv_usec = intervalUs;
        it.it_value.tv_usec = intervalUs;
        setitimer(ITIMER_PROF, &it, nullptr);
    }

    ~PcSampler() { stop(); }

    PcSampler(const PcSampler &) = delete;
    PcSampler &operator=(const PcSampler &) = delete;

    /** Stop sampling; a SIGPROF still pending is then ignored. */
    void
    stop()
    {
        const itimerval off = {};
        setitimer(ITIMER_PROF, &off, nullptr);
        signal(SIGPROF, SIG_IGN);
    }

    /** Histogram of the samples, "pc count" per line; after stop(). */
    void
    write(const std::string &path) const
    {
        const std::size_t n = std::min(g_numPcs.load(), maxSamples);
        std::map<std::uintptr_t, std::uint64_t> hist;
        for (std::size_t i = 0; i < n; ++i)
            ++hist[_pcs[i]];
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + path);
        for (const auto &[pc, count] : hist)
            std::fprintf(f, "%#llx %llu\n",
                         static_cast<unsigned long long>(pc),
                         static_cast<unsigned long long>(count));
        std::fclose(f);
    }

  private:
    std::vector<std::uintptr_t> _pcs;
};

/**
 * Moves one thread round the CPUs it may use, one CPU per interval.
 * On a shared host each CPU's speed drifts on its own, by up to a
 * third; rotating makes a single-threaded pass sample every CPU
 * alike, as the grid's pool with one worker per CPU does, instead of
 * whichever CPU it happened to land on.
 */
class CpuRotator
{
  public:
    explicit CpuRotator(pthread_t target) : _target(target)
    {
        CPU_ZERO(&_allowed);
        pthread_getaffinity_np(target, sizeof(_allowed), &_allowed);
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &_allowed))
                _cpus.push_back(c);
        if (_cpus.size() > 1)
            _thread = std::thread([this] { loop(); });
    }

    ~CpuRotator()
    {
        {
            const std::lock_guard<std::mutex> g(_mtx);
            _stop = true;
        }
        _cv.notify_one();
        if (_thread.joinable())
            _thread.join();
        pthread_setaffinity_np(_target, sizeof(_allowed), &_allowed);
    }

    CpuRotator(const CpuRotator &) = delete;
    CpuRotator &operator=(const CpuRotator &) = delete;

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lk(_mtx);
        for (std::size_t i = 0;
             !_cv.wait_for(lk, std::chrono::milliseconds(100),
                           [this] { return _stop; });
             ++i) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(_cpus[i % _cpus.size()], &one);
            pthread_setaffinity_np(_target, sizeof(one), &one);
        }
    }

    pthread_t _target;
    cpu_set_t _allowed;
    std::vector<int> _cpus;
    std::mutex _mtx;
    std::condition_variable _cv;
    bool _stop = false;
    std::thread _thread;  ///< last: it uses every member above
};

// ---- Output -----------------------------------------------------------

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** The per-run digests and checker-violation counts of one pass. */
std::string
checksJson(const std::vector<std::string> &digests,
           const std::vector<std::uint64_t> &violations)
{
    std::string s = "\"digests\": [";
    for (std::size_t i = 0; i < digests.size(); ++i)
        s += (i ? ", \"" : "\"") + digests[i] + "\"";
    s += "], \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i)
        s += (i ? ", " : "") + std::to_string(violations[i]);
    return s + "]";
}

double
peakRssMb()
{
    rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = p * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/** Untraced passes through System::run() for about @p seconds. */
int
cmdUntraced(const Workload &w, double seconds)
{
    struct Pass
    {
        double wallS, setupS, runS;
        std::uint64_t demands;
        std::vector<std::string> digests;
        std::vector<std::uint64_t> violations;
    };
    std::vector<Pass> passes;
    const auto start = Clock::now();
    do {
        Pass p{};
        std::vector<RunResult> rr(w.jobs.size());
        const auto t0 = Clock::now();
        forEachJob(w, [&](std::size_t i) { rr[i] = runUntraced(w.jobs[i]); });
        p.wallS = since(t0);
        for (const RunResult &r : rr) {
            p.setupS += r.setupS;
            p.runS += r.runS;
            p.demands += r.demands;
            p.digests.push_back(r.digest);
            p.violations.push_back(r.violations);
        }
        passes.push_back(std::move(p));
    } while (since(start) + passes.back().wallS <= seconds);

    // Set-up alone, several more times: construct and destroy the
    // workload's Systems with the same concurrency as a pass.
    std::vector<double> setup_only;
    for (int k = 0; k < setupRepeats; ++k) {
        std::vector<double> s(w.jobs.size());
        forEachJob(w, [&](std::size_t i) {
            const auto t0 = Clock::now();
            const System sys(w.jobs[i].cfg, w.jobs[i].workload);
            s[i] = since(t0);
        });
        double sum = 0;
        for (double x : s)
            sum += x;
        setup_only.push_back(sum);
    }

    std::printf("{\"mode\": \"untraced\", \"workers\": %u, "
                "\"peak_rss_mb\": %s, \"setup_only_s\": [",
                w.workers, num(peakRssMb()).c_str());
    for (std::size_t i = 0; i < setup_only.size(); ++i)
        std::printf("%s%s", i ? ", " : "", num(setup_only[i]).c_str());
    std::printf("], \"passes\": [");
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        std::printf("%s{\"wall_s\": %s, \"setup_s\": %s, \"run_s\": %s, "
                    "\"demands\": %llu, %s}",
                    i ? ", " : "", num(p.wallS).c_str(),
                    num(p.setupS).c_str(), num(p.runS).c_str(),
                    static_cast<unsigned long long>(p.demands),
                    checksJson(p.digests, p.violations).c_str());
    }
    std::printf("]}\n");
    return 0;
}

/** One phased pass over every job; returns the per-job results. */
std::vector<PhasedResult>
phasedPass(const Workload &w, double &wall_s)
{
    std::vector<PhasedResult> pr(w.jobs.size());
    const auto t0 = Clock::now();
    forEachJob(w, [&](std::size_t i) { pr[i] = runPhased(w.jobs[i]); });
    wall_s = since(t0);
    return pr;
}

/** TDRAM's geomean speedup over @p d on the grid (simulated). */
double
tdramVs(const Workload &w, const std::vector<PhasedResult> &pr,
        Design d)
{
    std::vector<double> ratios;
    std::map<std::string, double> tdram;
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        if (w.jobs[i].cfg.design == Design::Tdram)
            tdram[w.jobs[i].workload.name] =
                static_cast<double>(pr[i].report.runtimeTicks);
    for (std::size_t i = 0; i < w.jobs.size(); ++i)
        if (w.jobs[i].cfg.design == d)
            ratios.push_back(
                static_cast<double>(pr[i].report.runtimeTicks) /
                tdram.at(w.jobs[i].workload.name));
    return geomean(ratios);
}

/** Phased passes, the second one sampled; prints per-layer metrics. */
int
cmdTraced(const Workload &w, const std::string &workdir)
{
    double plain_wall = 0;
    const std::vector<PhasedResult> plain = phasedPass(w, plain_wall);

    double wall = 0;
    std::vector<PhasedResult> pr;
    {
        PcSampler sampler;
        pr = phasedPass(w, wall);
        sampler.stop();
        sampler.write(workdir + "/samples.txt");
    }

    std::map<std::string, double> m;
    double plain_loop = 0;
    for (const PhasedResult &p : plain)
        plain_loop += p.loopS;

    double setup = 0, warm = 0, loop = 0, demands = 0, events = 0;
    double sim_ns = 0, stalls = 0, rd_lat = 0, llc_h = 0, llc_m = 0,
           llc_wb = 0, miss_w = 0, tag_ns = 0, bloat = 0, rq = 0,
           mmrq = 0, row_h = 0, acts = 0, cmds = 0, probes = 0,
           conflicts = 0, flush = 0, ck_ev = 0, ck_viol = 0, kicks = 0,
           scans = 0;
    std::vector<double> job_s;
    for (const PhasedResult &p : pr) {
        const SimReport &r = p.report;
        const double d = static_cast<double>(r.demandReads + r.demandWrites);
        setup += p.setupS;
        warm += p.warmupS;
        loop += p.loopS;
        job_s.push_back(p.jobS);
        demands += d;
        events += static_cast<double>(p.events);
        sim_ns += r.runtimeNs();
        stalls += static_cast<double>(r.backpressureStalls);
        rd_lat += r.demandReadLatencyNs;
        llc_h += p.llcHits;
        llc_m += p.llcMisses;
        llc_wb += p.llcWritebacks;
        miss_w += r.missRatio * d;
        tag_ns += r.tagCheckNs;
        bloat += r.bloat;
        rq += p.readQDelayNs;
        mmrq += p.mmReadQDelayNs;
        row_h += p.rowHits;
        acts += p.dataActs;
        cmds += p.chanCmds;
        probes += static_cast<double>(r.probes);
        conflicts += p.probeConflicts;
        flush += static_cast<double>(r.flushStalls);
        ck_ev += static_cast<double>(r.checkEvents);
        ck_viol += static_cast<double>(r.checkViolations);
        kicks += static_cast<double>(p.kicks);
        scans += static_cast<double>(p.scans);
    }
    const double runs = static_cast<double>(pr.size());
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    m["sim.events"] = events;
    m["sim.events_per_demand"] = ratio(events, demands);
    m["sim.loop_s"] = loop;
    m["sim.ns_per_event"] = ratio(loop * 1e9, events);
    m["sweep.workers"] = w.workers > 1 ? w.workers : 0;
    m["sweep.job_s_p50"] = w.workers > 1 ? percentile(job_s, 0.5) : 0;
    m["sweep.job_s_p80"] = w.workers > 1 ? percentile(job_s, 0.8) : 0;
    double job_sum = 0;
    for (double x : job_s)
        job_sum += x;
    m["sweep.busy_frac"] =
        w.workers > 1 ? ratio(job_sum, wall * w.workers) : 0;
    m["system.setup_s"] = setup;
    m["system.sim_runtime_us"] = sim_ns * 1e-3;
    m["workload.warmup_s"] = warm;
    m["workload.warmup_share"] = ratio(warm, setup + warm + loop);
    m["workload.backpressure_stalls"] = stalls;
    m["workload.read_latency_ns"] = rd_lat / runs;
    m["cache.llc_miss_ratio"] = ratio(llc_m, llc_h + llc_m);
    m["cache.llc_writebacks"] = llc_wb;
    m["dcache.demands"] = demands;
    m["dcache.miss_ratio"] = ratio(miss_w, demands);
    m["dcache.tag_check_ns"] = tag_ns / runs;
    m["dcache.bloat"] = bloat / runs;
    const bool grid = w.name == "grid-fig11";
    m["dcache.tdram_vs_cl"] =
        grid ? tdramVs(w, pr, Design::CascadeLake) : 0;
    m["dcache.tdram_vs_alloy"] = grid ? tdramVs(w, pr, Design::Alloy) : 0;
    m["dcache.tdram_vs_bear"] = grid ? tdramVs(w, pr, Design::Bear) : 0;
    m["dcache.tdram_vs_ndc"] = grid ? tdramVs(w, pr, Design::Ndc) : 0;
    // Mean absolute error against the paper's Fig 11 geomeans, which
    // were never used for calibration (the profiles fit Fig 1).
    m["dcache.fig11_err_pct"] =
        grid ? 25.0 * (std::abs(m["dcache.tdram_vs_cl"] / 1.20 - 1) +
                       std::abs(m["dcache.tdram_vs_alloy"] / 1.23 - 1) +
                       std::abs(m["dcache.tdram_vs_bear"] / 1.13 - 1) +
                       std::abs(m["dcache.tdram_vs_ndc"] / 1.08 - 1))
             : 0;
    m["dram.kicks"] = kicks;
    m["dram.scan_steps"] = scans;
    m["dram.kicks_per_demand"] = ratio(kicks, demands);
    m["dram.scans_per_kick"] = ratio(scans, kicks);
    m["dram.chan_cmds"] = cmds;
    m["dram.read_q_delay_ns"] = rq / runs;
    m["dram.mm_read_q_delay_ns"] = mmrq / runs;
    m["dram.row_hit_frac"] = ratio(row_h, row_h + acts);
    m["tdram.probes"] = probes;
    m["tdram.probe_bank_conflicts"] = conflicts;
    m["tdram.flush_stalls"] = flush;
    m["check.events"] = ck_ev;
    m["check.violations"] = ck_viol;
    m["traced.overhead_pct"] = ratio((loop - plain_loop) * 100.0,
                                     plain_loop);

    double decode_s = 0, records = 0;
    const std::string &replay = w.jobs.front().cfg.replay.path;
    if (!replay.empty()) {
        const auto t0 = Clock::now();
        TdtzReader rd;
        if (!rd.open(replay))
            throw std::runtime_error("replay: " + rd.error());
        ReplayRecord rec;
        while (rd.next(rec))
            ++records;
        if (!rd.ok())
            throw std::runtime_error("replay: " + rd.error());
        decode_s = since(t0);
    }
    m["trace.records"] = records;
    m["trace.decode_s"] = decode_s;

    auto checks = [](const std::vector<PhasedResult> &runs) {
        std::vector<std::string> digests;
        std::vector<std::uint64_t> violations;
        for (const PhasedResult &p : runs) {
            digests.push_back(p.digest);
            violations.push_back(p.report.checkViolations);
        }
        return "{" + checksJson(digests, violations) + "}";
    };
    std::printf("{\"mode\": \"traced\", \"passes\": [%s, %s], "
                "\"metrics\": {",
                checks(plain).c_str(), checks(pr).c_str());
    bool first = true;
    for (const auto &[k, v] : m) {
        std::printf("%s\"%s\": %s", first ? "" : ", ", k.c_str(),
                    num(v).c_str());
        first = false;
    }
    std::printf("}}\n");
    return 0;
}

std::uint64_t
parseU64(const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        throw std::runtime_error(std::string("not a number: ") + s);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string cmd = argc > 1 ? argv[1] : "";
        if (cmd == "gen-replay" && argc == 4) {
            genReplay(argv[2], parseU64(argv[3]) % numVariants);
            return 0;
        }
        if (cmd == "run" && argc == 7) {
            const std::string workdir = argv[6];
            const Workload w = makeWorkload(
                argv[2], parseU64(argv[3]) % numVariants, workdir);
            const double seconds =
                static_cast<double>(parseU64(argv[4]));
            const std::uint64_t traced = parseU64(argv[5]);
            std::optional<CpuRotator> rotator;
            if (w.workers == 1)
                rotator.emplace(pthread_self());
            return traced ? cmdTraced(w, workdir)
                          : cmdUntraced(w, seconds);
        }
        std::fprintf(stderr,
                     "usage: perfbench gen-replay OUT.tdtz VARIANT\n"
                     "       perfbench run WORKLOAD VARIANT SECONDS "
                     "TRACE WORKDIR\n");
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
