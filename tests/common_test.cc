#include <gtest/gtest.h>

#include <set>

#include "common/fault.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace greater {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Invalid("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::Invalid("bad arg").ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, WithContextBuildsInnermostFirstChain) {
  Status s = Status::Invalid("bad cell")
                 .WithContext("stage 'fit' (table 'fused')")
                 .WithContext("running pipeline");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad cell");
  ASSERT_EQ(s.context().size(), 2u);
  EXPECT_EQ(s.context()[0], "stage 'fit' (table 'fused')");
  EXPECT_EQ(s.context()[1], "running pipeline");
  EXPECT_EQ(s.ToString(),
            "InvalidArgument: bad cell; while stage 'fit' (table 'fused')"
            "; while running pipeline");
}

TEST(StatusTest, WithContextOnOkIsANoOp) {
  Status s = Status::OK().WithContext("ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.context().empty());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, EqualityIncludesContext) {
  Status plain = Status::Invalid("x");
  Status framed = Status::Invalid("x").WithContext("frame");
  EXPECT_FALSE(plain == framed);
  EXPECT_TRUE(framed == Status::Invalid("x").WithContext("frame"));
}

TEST(StatusTest, RetryAfterHintRoundTripsThroughContext) {
  Status bare = Status::ResourceExhausted("over quota");
  EXPECT_FALSE(bare.retry_after_ms().has_value());

  Status hinted = bare.WithRetryAfter(250);
  ASSERT_TRUE(hinted.retry_after_ms().has_value());
  EXPECT_EQ(*hinted.retry_after_ms(), 250u);
  // The original is untouched; WithRetryAfter is a value builder.
  EXPECT_FALSE(bare.retry_after_ms().has_value());

  // Context frames added above the hint preserve it — callers deep in a
  // call chain still see the producer's pacing advice.
  Status framed = hinted.WithContext("submitting to tenant 'alpha'");
  ASSERT_TRUE(framed.retry_after_ms().has_value());
  EXPECT_EQ(*framed.retry_after_ms(), 250u);
  EXPECT_NE(framed.ToString().find("(retry after 250 ms)"),
            std::string::npos);

  // OK statuses never carry a hint, and the hint participates in equality.
  EXPECT_FALSE(Status::OK().WithRetryAfter(10).retry_after_ms().has_value());
  EXPECT_FALSE(hinted == bare);
  EXPECT_TRUE(hinted == Status::ResourceExhausted("over quota").WithRetryAfter(250));
  EXPECT_FALSE(hinted ==
               Status::ResourceExhausted("over quota").WithRetryAfter(251));
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 5);
  EXPECT_EQ(*r, 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusConstructionBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Chain(int x) {
  GREATER_ASSIGN_OR_RETURN(int h, Half(x));
  GREATER_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Chain(8).ValueOrDie(), 2);
  EXPECT_FALSE(Chain(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Chain(7).ok());
}

Result<int> ChainWithContext(int x) {
  GREATER_ASSIGN_OR_RETURN_CTX(int h, Half(x), "first halving");
  GREATER_ASSIGN_OR_RETURN_CTX(int q, Half(h), "second halving");
  return q;
}

Status CheckedWithContext(int x) {
  GREATER_RETURN_NOT_OK_CTX(ChainWithContext(x).status(), "checking " +
                                                              std::to_string(x));
  return Status::OK();
}

TEST(ResultTest, CtxMacrosAnnotateThePropagatedError) {
  EXPECT_EQ(ChainWithContext(8).ValueOrDie(), 2);

  Result<int> first = ChainWithContext(7);
  ASSERT_FALSE(first.ok());
  ASSERT_EQ(first.status().context().size(), 1u);
  EXPECT_EQ(first.status().context()[0], "first halving");

  Result<int> second = ChainWithContext(6);  // 6/2=3 fails in step two
  ASSERT_FALSE(second.ok());
  ASSERT_EQ(second.status().context().size(), 1u);
  EXPECT_EQ(second.status().context()[0], "second halving");

  Status chained = CheckedWithContext(6);
  ASSERT_EQ(chained.context().size(), 2u);
  EXPECT_EQ(chained.context()[0], "second halving");
  EXPECT_EQ(chained.context()[1], "checking 6");
}

TEST(ResultDeathTest, ValueOrDieOnErrorAbortsWithMessage) {
  Result<int> r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_DEATH({ (void)r.ValueOrDie(); }, "ValueOrDie called on an error");
}

// ---------- fault injection ----------

Status GuardedOperation() {
  GREATER_FAULT_POINT("test.op");
  return Status::OK();
}

TEST(FaultTest, UnarmedPointPassesThrough) {
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  EXPECT_EQ(FaultRegistry::Global().hits("test.op"), 0u);
}

TEST(FaultTest, ArmedPointFiresWithConfiguredCodeAndMessage) {
  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "boom";
  ScopedFault fault("test.op", spec);
  EXPECT_TRUE(FaultRegistry::AnyArmed());
  Status s = GuardedOperation();
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "boom");
  EXPECT_EQ(FaultRegistry::Global().hits("test.op"), 1u);
  EXPECT_EQ(FaultRegistry::Global().fires("test.op"), 1u);
}

TEST(FaultTest, DefaultMessageNamesThePoint) {
  ScopedFault fault("test.op");
  Status s = GuardedOperation();
  EXPECT_NE(s.message().find("test.op"), std::string::npos);
}

TEST(FaultTest, DisarmRestoresPassThrough) {
  {
    ScopedFault fault("test.op");
    EXPECT_FALSE(GuardedOperation().ok());
  }
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_FALSE(FaultRegistry::AnyArmed());
}

TEST(FaultTest, SkipHitsAndMaxFiresShapeTheWindow) {
  FaultSpec spec;
  spec.skip_hits = 2;
  spec.max_fires = 1;
  ScopedFault fault("test.op", spec);
  EXPECT_TRUE(GuardedOperation().ok());   // hit 1: skipped
  EXPECT_TRUE(GuardedOperation().ok());   // hit 2: skipped
  EXPECT_FALSE(GuardedOperation().ok());  // hit 3: fires
  EXPECT_TRUE(GuardedOperation().ok());   // hit 4: fire budget spent
  EXPECT_EQ(FaultRegistry::Global().hits("test.op"), 4u);
  EXPECT_EQ(FaultRegistry::Global().fires("test.op"), 1u);
}

TEST(FaultTest, ProbabilityTriggerIsSeedDeterministic) {
  auto fire_pattern = [](uint64_t seed) {
    FaultSpec spec;
    spec.probability = 0.5;
    spec.seed = seed;
    ScopedFault fault("test.op", spec);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      pattern += GuardedOperation().ok() ? '.' : 'X';
    }
    return pattern;
  };
  std::string a = fire_pattern(42);
  EXPECT_EQ(a, fire_pattern(42));
  EXPECT_NE(a, fire_pattern(43));
  // A 50% trigger should neither always fire nor never fire over 32 hits.
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultTest, RearmResetsCounters) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.Arm("test.op");
  EXPECT_FALSE(GuardedOperation().ok());
  EXPECT_EQ(registry.fires("test.op"), 1u);
  registry.Arm("test.op");  // re-arm
  EXPECT_EQ(registry.hits("test.op"), 0u);
  EXPECT_EQ(registry.fires("test.op"), 0u);
  registry.DisarmAll();
  EXPECT_FALSE(FaultRegistry::AnyArmed());
}

// ---------- Rng ----------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Categorical(weights));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, CategoricalProportions) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Categorical(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(17);
  auto perm = rng.Permutation(50);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(perm.size(), 50u);
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, BootstrapIndicesInRange) {
  Rng rng(19);
  auto idx = rng.BootstrapIndices(10, 100);
  EXPECT_EQ(idx.size(), 100u);
  for (size_t i : idx) EXPECT_LT(i, 10u);
}

TEST(RngTest, BootstrapFromEmptyPoolIsEmpty) {
  Rng rng(19);
  EXPECT_TRUE(rng.BootstrapIndices(0, 5).empty());
}

TEST(RngTest, ForkStreamsAreDecorrelated) {
  Rng parent(23);
  Rng child = parent.Fork();
  // Child and parent should produce different streams.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.UniformInt(0, 1 << 30) == child.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, SavedStateRoundTripsAndMalformedStateIsRefused) {
  Rng rng(1234);
  for (int i = 0; i < 17; ++i) rng.UniformInt(0, 1000000);
  Rng restored(1);
  ASSERT_TRUE(restored.LoadState(rng.SaveState()));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rng.UniformInt(0, 1000000), restored.UniformInt(0, 1000000));
  }
  // Malformed bytes are refused and leave the stream where it was.
  Rng other(2);
  Rng untouched(2);
  EXPECT_FALSE(other.LoadState(std::string("\x03zzz", 4)));
  EXPECT_EQ(other.UniformInt(0, 1000000), untouched.UniformInt(0, 1000000));
}

// ---------- strings ----------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSkipEmptyDropsEmptyFields) {
  auto parts = SplitSkipEmpty("a,,b,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  hello\tworld \n x ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[1], "world");
  EXPECT_EQ(parts[2], "x");
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Strip) {
  EXPECT_EQ(Strip("  x y  "), "x y");
  EXPECT_EQ(Strip("\t\n"), "");
  EXPECT_EQ(Strip("abc"), "abc");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "hello!"));
  EXPECT_TRUE(EndsWith("value</w>", "</w>"));
  EXPECT_FALSE(EndsWith("x", "xx"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("20^35^42", "^", " and "), "20 and 35 and 42");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(StringsTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_FALSE(ParseInt("42x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("4.2").has_value());
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("x").has_value());
  EXPECT_FALSE(ParseDouble("1.5junk").has_value());
}

TEST(StringsTest, FormatDoubleIntegralValuesHaveNoPoint) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-12.0), "-12");
}

TEST(StringsTest, FormatDoubleRoundTrips) {
  for (double v : {0.1, 3.14159, -2.5, 1e-9, 123456.789}) {
    EXPECT_DOUBLE_EQ(ParseDouble(FormatDouble(v)).value(), v);
  }
}

// ---------- Matrix ----------

TEST(MatrixTest, MatMul) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  a.data().assign(av, av + 6);
  b.data().assign(bv, bv + 6);
  Matrix c = a.MatMul(b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, TransposedAndAddScaled) {
  Matrix a(2, 3, 1.0);
  Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  Matrix b(2, 3, 2.0);
  a.AddScaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a(1, 2), 2.0);
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

}  // namespace
}  // namespace greater
