/**
 * @file
 * Tests for crash-safe checkpointing (src/exec/checkpoint) and the
 * atomic file writer: sweep fingerprint binding, the bit-exact
 * RunResult JSON round trip behind --resume byte-identity, corrupt
 * checkpoint rejection, flush cadence, and the torn_write chaos hook
 * that produces exactly the corruption the atomic path prevents.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/atomic_file.hh"
#include "exec/checkpoint.hh"

using namespace prism;

namespace
{

MachineConfig
tinyMachine()
{
    MachineConfig m;
    m.numCores = 2;
    m.llcBytes = 64ull << 10;
    m.llcWays = 4;
    m.intervalMisses = 200;
    m.instrBudget = 60'000;
    m.warmupInstr = 15'000;
    return m;
}

SweepSpec
tinySpec(const std::string &name = "ckpt-test")
{
    SweepSpec spec;
    spec.name = name;
    const MachineConfig m = tinyMachine();
    const Workload w{"GF", {"403.gcc", "186.crafty"}};
    spec.add(m, w, SchemeKind::Baseline);
    spec.add(m, w, SchemeKind::PrismH);
    spec.add(m, w, SchemeKind::FairWP);
    return spec;
}

/** A fully populated result; no simulation needed. */
RunResult
fakeResult(double ipc0 = 0.75)
{
    RunResult r;
    r.workload = "GF";
    r.scheme = "PriSM-H";
    r.benchmarks = {"403.gcc", "186.crafty"};
    r.ipc = {ipc0, 0.5};
    r.ipcStandalone = {0.9, 0.8};
    r.llcMisses = {1234, 5678};
    r.llcHits = {4321, 8765};
    r.occupancyAtFinish = {0.4, 0.6};
    r.intervals = 42;
    r.victimlessFraction = 0.125;
    r.evProbMean = {0.3, 0.7};
    r.evProbStddev = {0.01, 0.02};
    r.recomputes = 40;
    r.faultsInjected = 3;
    r.degradedIntervals = 2;
    r.invariantViolations = 1;
    r.ownershipRepairs = 1;
    r.clampedEq1Inputs = 5;
    r.droppedRecomputes = 2;
    r.fallbackEntries = 0;
    return r;
}

/** fakeResult shaped as a PriSM-WM job, backend fields included. */
RunResult
fakeWayMaskResult()
{
    RunResult r = fakeResult();
    r.scheme = "PriSM-WM";
    r.plane = "way-mask";
    r.wayQuantError = 0.0625;
    return r;
}

std::string
serialise(const RunResult &r)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    writeRunResultFields(w, r);
    w.endObject();
    return os.str();
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

// --- sweep fingerprint ---

TEST(SweepFingerprint, StableForIdenticalSpecs)
{
    EXPECT_EQ(sweepFingerprint(tinySpec()),
              sweepFingerprint(tinySpec()));
    EXPECT_EQ(sweepFingerprint(tinySpec()).size(), 16u);
}

TEST(SweepFingerprint, SensitiveToEveryResultAffectingAxis)
{
    const std::string base = sweepFingerprint(tinySpec());

    EXPECT_NE(base, sweepFingerprint(tinySpec("other-name")));

    SweepSpec more = tinySpec();
    more.add(tinyMachine(), Workload{"SS", {"179.art", "470.lbm"}},
             SchemeKind::PrismH);
    EXPECT_NE(base, sweepFingerprint(more));

    // Machine configuration (the seed included) changes the hash.
    SweepSpec seeded;
    seeded.name = "ckpt-test";
    MachineConfig m = tinyMachine();
    m.seed = 777;
    const Workload w{"GF", {"403.gcc", "186.crafty"}};
    seeded.add(m, w, SchemeKind::Baseline);
    seeded.add(m, w, SchemeKind::PrismH);
    seeded.add(m, w, SchemeKind::FairWP);
    EXPECT_NE(base, sweepFingerprint(seeded));

    // Scheme options change the hash even when ids happen to match.
    SweepSpec opts;
    opts.name = "ckpt-test";
    SchemeOptions quantised;
    quantised.probBits = 6;
    opts.add(tinyMachine(), w, SchemeKind::Baseline);
    opts.add(tinyMachine(), w, SchemeKind::PrismH, quantised);
    opts.add(tinyMachine(), w, SchemeKind::FairWP);
    EXPECT_NE(base, sweepFingerprint(opts));
}

// --- RunResult JSON round trip ---

TEST(RunResultRoundTrip, EveryFieldSurvives)
{
    const RunResult r = fakeResult();
    JsonValue doc;
    ASSERT_TRUE(parseJson(serialise(r), doc).ok());

    RunResult back;
    const Status st = readRunResultFields(doc, back);
    ASSERT_TRUE(st.ok()) << st.message();

    EXPECT_EQ(back.workload, r.workload);
    EXPECT_EQ(back.scheme, r.scheme);
    EXPECT_EQ(back.benchmarks, r.benchmarks);
    EXPECT_EQ(back.ipc, r.ipc);
    EXPECT_EQ(back.ipcStandalone, r.ipcStandalone);
    EXPECT_EQ(back.llcMisses, r.llcMisses);
    EXPECT_EQ(back.llcHits, r.llcHits);
    EXPECT_EQ(back.occupancyAtFinish, r.occupancyAtFinish);
    EXPECT_EQ(back.intervals, r.intervals);
    EXPECT_EQ(back.victimlessFraction, r.victimlessFraction);
    EXPECT_EQ(back.evProbMean, r.evProbMean);
    EXPECT_EQ(back.evProbStddev, r.evProbStddev);
    EXPECT_EQ(back.recomputes, r.recomputes);
    EXPECT_EQ(back.faultsInjected, r.faultsInjected);
    EXPECT_EQ(back.degradedIntervals, r.degradedIntervals);
    EXPECT_EQ(back.invariantViolations, r.invariantViolations);
    EXPECT_EQ(back.ownershipRepairs, r.ownershipRepairs);
    EXPECT_EQ(back.clampedEq1Inputs, r.clampedEq1Inputs);
    EXPECT_EQ(back.droppedRecomputes, r.droppedRecomputes);
    EXPECT_EQ(back.fallbackEntries, r.fallbackEntries);
    EXPECT_EQ(back.recorder, nullptr);
    EXPECT_TRUE(back.plane.empty());

    // A PriSM-WM result also carries its backend fields.
    const RunResult wm = fakeWayMaskResult();
    ASSERT_TRUE(parseJson(serialise(wm), doc).ok());
    ASSERT_TRUE(readRunResultFields(doc, back).ok());
    EXPECT_EQ(back.scheme, "PriSM-WM");
    EXPECT_EQ(back.plane, wm.plane);
    EXPECT_EQ(back.wayQuantError, wm.wayQuantError);
}

TEST(RunResultRoundTrip, ReserialisationIsByteIdentical)
{
    // The property --resume byte-identity rests on: serialise,
    // restore, serialise again — identical bytes, NaN included
    // (non-finite doubles pass through JSON null), for simulator and
    // PriSM-WM results alike.
    for (RunResult r : {fakeResult(), fakeWayMaskResult()}) {
        r.ipc[1] = std::numeric_limits<double>::quiet_NaN();
        r.victimlessFraction =
            std::numeric_limits<double>::quiet_NaN();

        const std::string first = serialise(r);
        JsonValue doc;
        ASSERT_TRUE(parseJson(first, doc).ok());
        RunResult back;
        ASSERT_TRUE(readRunResultFields(doc, back).ok());
        EXPECT_TRUE(std::isnan(back.ipc[1]));
        EXPECT_TRUE(std::isnan(back.victimlessFraction));
        EXPECT_EQ(serialise(back), first) << r.scheme;
    }
}

// --- corrupt checkpoint rejection ---

TEST(LoadCheckpoint, MissingFileFails)
{
    CheckpointData data;
    EXPECT_FALSE(
        loadCheckpoint(tmpPath("no_such.ckpt.json"), data).ok());
}

TEST(LoadCheckpoint, RejectsCorruptDocuments)
{
    const struct
    {
        const char *name;
        const char *payload;
    } cases[] = {
        {"truncated", "{\"schema\": \"prism-ckpt-v1\", \"swe"},
        {"wrong_schema", "{\"schema\": \"prism-bench-v1\"}"},
        {"missing_jobs",
         "{\"schema\": \"prism-ckpt-v1\", \"sweep\": \"s\","
         " \"fingerprint\": \"f\"}"},
        {"unknown_failure_kind",
         "{\"schema\": \"prism-ckpt-v1\", \"sweep\": \"s\","
         " \"fingerprint\": \"f\", \"jobs\": [{\"id\": \"j\","
         " \"attempts\": 2, \"failures\":"
         " [{\"kind\": \"gremlin\", \"message\": \"x\"}],"
         " \"result\": {}}]}"},
    };
    for (const auto &c : cases) {
        const std::string path =
            tmpPath(std::string("corrupt_") + c.name + ".ckpt.json");
        {
            std::ofstream out(path, std::ios::trunc);
            out << c.payload;
        }
        CheckpointData data;
        const Status st = loadCheckpoint(path, data);
        EXPECT_FALSE(st.ok()) << c.name;
        EXPECT_NE(st.message().find("corrupt checkpoint"),
                  std::string::npos)
            << c.name << ": " << st.message();
        std::remove(path.c_str());
    }
}

// --- the checkpoint writer ---

TEST(CheckpointWriter, RecordFlushLoadRoundTrip)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tmpPath("writer_rt.ckpt.json");
    CheckpointWriter writer(path, spec);

    JobReport clean;
    JobReport recovered;
    recovered.state = JobState::Recovered;
    recovered.attempts = 3;
    recovered.failures = {
        {JobErrorKind::Transient, "crash one"},
        {JobErrorKind::Timeout, "deadline"},
    };

    ASSERT_TRUE(writer.record(0, fakeResult(0.7), clean).ok());
    ASSERT_TRUE(writer.record(2, fakeResult(0.8), recovered).ok());
    EXPECT_EQ(writer.flushes(), 2u);

    CheckpointData data;
    const Status st = loadCheckpoint(path, data);
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(data.sweep, spec.name);
    EXPECT_EQ(data.fingerprint, sweepFingerprint(spec));
    ASSERT_EQ(data.jobs.size(), 2u);
    // Spec order, not completion order.
    EXPECT_EQ(data.jobs[0].id, spec.jobs[0].id);
    EXPECT_EQ(data.jobs[1].id, spec.jobs[2].id);
    EXPECT_EQ(data.jobs[0].attempts, 1u);
    EXPECT_EQ(data.jobs[1].attempts, 3u);
    ASSERT_EQ(data.jobs[1].failures.size(), 2u);
    EXPECT_EQ(data.jobs[1].failures[0].kind, JobErrorKind::Transient);
    EXPECT_EQ(data.jobs[1].failures[0].message, "crash one");
    EXPECT_EQ(data.jobs[1].failures[1].kind, JobErrorKind::Timeout);
    EXPECT_EQ(data.jobs[1].result.ipc[0], 0.8);
    std::remove(path.c_str());
}

TEST(CheckpointWriter, FlushCadenceBatchesWrites)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tmpPath("writer_cadence.ckpt.json");
    CheckpointWriter::Options options;
    options.every = 2;
    CheckpointWriter writer(path, spec, options);

    JobReport report;
    ASSERT_TRUE(writer.record(0, fakeResult(), report).ok());
    EXPECT_EQ(writer.flushes(), 0u) << "first record must batch";
    ASSERT_TRUE(writer.record(1, fakeResult(), report).ok());
    EXPECT_EQ(writer.flushes(), 1u);

    ASSERT_TRUE(writer.record(2, fakeResult(), report).ok());
    EXPECT_EQ(writer.flushes(), 1u);
    ASSERT_TRUE(writer.flush().ok());
    EXPECT_EQ(writer.flushes(), 2u);

    CheckpointData data;
    ASSERT_TRUE(loadCheckpoint(path, data).ok());
    EXPECT_EQ(data.jobs.size(), 3u);
    std::remove(path.c_str());
}

TEST(CheckpointWriter, SeededEntriesFlushWithoutCountingCadence)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tmpPath("writer_seed.ckpt.json");
    CheckpointWriter::Options options;
    options.every = 2;
    CheckpointWriter writer(path, spec, options);

    JobReport restored;
    restored.restored = true;
    writer.seed(0, fakeResult(), restored);
    EXPECT_EQ(writer.flushes(), 0u);

    JobReport report;
    ASSERT_TRUE(writer.record(1, fakeResult(), report).ok());
    EXPECT_EQ(writer.flushes(), 0u)
        << "seeded entries must not advance the flush cadence";
    ASSERT_TRUE(writer.record(2, fakeResult(), report).ok());
    EXPECT_EQ(writer.flushes(), 1u);

    CheckpointData data;
    ASSERT_TRUE(loadCheckpoint(path, data).ok());
    EXPECT_EQ(data.jobs.size(), 3u)
        << "seeded entries must be part of the flushed union";
    std::remove(path.c_str());
}

TEST(CheckpointWriter, EmptyFlushWritesNothing)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tmpPath("writer_empty.ckpt.json");
    CheckpointWriter writer(path, spec);
    ASSERT_TRUE(writer.flush().ok());
    EXPECT_EQ(writer.flushes(), 0u);
    std::ifstream in(path);
    EXPECT_FALSE(in) << "no jobs recorded, no file expected";
}

TEST(CheckpointWriter, TornWriteChaosLeavesUnloadableFile)
{
    const SweepSpec spec = tinySpec();
    const std::string path = tmpPath("writer_torn.ckpt.json");
    CheckpointWriter::Options options;
    std::vector<FaultClause> chaos;
    ASSERT_TRUE(parseFaultSpec("torn_write@1", chaos).ok());
    options.chaos = chaos;
    CheckpointWriter writer(path, spec, options);

    JobReport report;
    ASSERT_TRUE(writer.record(0, fakeResult(), report).ok());
    EXPECT_EQ(writer.tornWrites(), 1u);

    CheckpointData data;
    const Status st = loadCheckpoint(path, data);
    EXPECT_FALSE(st.ok())
        << "a torn flush must not parse as a valid checkpoint";
    EXPECT_NE(st.message().find("corrupt checkpoint"),
              std::string::npos);
    std::remove(path.c_str());
}

// --- the atomic writer itself ---

TEST(AtomicFile, WritesAndReplacesPayloads)
{
    const std::string path = tmpPath("atomic_basic.txt");
    ASSERT_TRUE(writeFileAtomic(path, "first").ok());
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(writeFileAtomic(path, "second, longer payload").ok());
    EXPECT_EQ(slurp(path), "second, longer payload");
    // No temporary residue after a successful write.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp);
    std::remove(path.c_str());
}

TEST(AtomicFile, StreamingOverloadMatchesPayloadOverload)
{
    const std::string a = tmpPath("atomic_stream_a.txt");
    const std::string b = tmpPath("atomic_stream_b.txt");
    ASSERT_TRUE(writeFileAtomic(a, "hello\nworld\n").ok());
    ASSERT_TRUE(writeFileAtomic(b,
                                [](std::ostream &os) {
                                    os << "hello\n"
                                       << "world\n";
                                })
                    .ok());
    EXPECT_EQ(slurp(a), slurp(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(AtomicFile, UnwritableDestinationReportsError)
{
    const Status st =
        writeFileAtomic("/no/such/directory/file.json", "x");
    EXPECT_FALSE(st.ok());
}
