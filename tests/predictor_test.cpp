#include "src/core/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace hcrl::core {
namespace {

TEST(LastValuePredictor, ReturnsPriorThenLast) {
  LastValuePredictor p(600.0);
  EXPECT_DOUBLE_EQ(p.predict(), 600.0);
  p.observe(42.0);
  EXPECT_DOUBLE_EQ(p.predict(), 42.0);
  p.observe(7.0);
  EXPECT_DOUBLE_EQ(p.predict(), 7.0);
}

TEST(SlidingMeanPredictor, WindowedAverage) {
  SlidingMeanPredictor p(3, 100.0);
  EXPECT_DOUBLE_EQ(p.predict(), 100.0);
  p.observe(10.0);
  p.observe(20.0);
  EXPECT_DOUBLE_EQ(p.predict(), 15.0);
  p.observe(30.0);
  p.observe(40.0);  // evicts 10
  EXPECT_DOUBLE_EQ(p.predict(), 30.0);
}

TEST(SlidingMeanPredictor, OutlierSensitivityMotivatesLstm) {
  // The paper's §VI-A argument: one very long inter-arrival ruins a set of
  // subsequent linear predictions.
  SlidingMeanPredictor p(5, 10.0);
  for (int i = 0; i < 5; ++i) p.observe(10.0);
  p.observe(10000.0);
  EXPECT_GT(p.predict(), 1000.0);  // wildly off for the next few predictions
}

TEST(SlidingMeanPredictor, ZeroWindowThrows) {
  EXPECT_THROW(SlidingMeanPredictor(0), std::invalid_argument);
}

TEST(LstmPredictorOptions, Validation) {
  LstmPredictorOptions o;
  EXPECT_NO_THROW(o.validate());
  o.lookback = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LstmPredictorOptions{};
  o.history_capacity = o.lookback;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = LstmPredictorOptions{};
  o.norm_scale_s = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(LstmPredictor, NormalizeDenormalizeRoundTrip) {
  LstmPredictorOptions o;
  LstmPredictor p(o);
  for (double x : {0.0, 1.0, 30.0, 600.0, 3600.0, 20000.0}) {
    EXPECT_NEAR(p.denormalize(p.normalize(x)), x, 1e-6 * std::max(1.0, x));
  }
}

TEST(LstmPredictor, PriorBeforeWarmup) {
  LstmPredictorOptions o;
  o.prior_s = 123.0;
  LstmPredictor p(o);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);
  p.observe(10.0);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);  // still fewer than lookback samples
}

TEST(LstmPredictor, RejectsNegativeInterArrival) {
  LstmPredictor p(LstmPredictorOptions{});
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(LstmPredictor, PredictionIsFiniteAndNonNegative) {
  LstmPredictorOptions o;
  o.lookback = 10;
  LstmPredictor p(o);
  common::Rng rng(3);
  for (int i = 0; i < 100; ++i) p.observe(rng.exponential(1.0 / 60.0));
  const double pred = p.predict();
  EXPECT_TRUE(std::isfinite(pred));
  EXPECT_GE(pred, 0.0);
}

TEST(LstmPredictor, LearnsAlternatingPattern) {
  // Inter-arrivals alternate 30, 300, 30, 300, ... A linear window-mean
  // predictor is stuck at ~165 for every step; the LSTM should learn to
  // discriminate the two phases. We check training loss decreases strongly.
  LstmPredictorOptions o;
  o.lookback = 8;
  o.hidden_units = 12;
  o.train_interval = 1;
  o.train_windows = 2;
  o.learning_rate = 5e-3;
  LstmPredictor p(o);
  double early_loss = 0.0;
  int early_count = 0;
  for (int i = 0; i < 60; ++i) {
    p.observe(i % 2 == 0 ? 30.0 : 300.0);
    if (i >= 20 && i < 40 && p.last_training_loss() >= 0.0) {
      early_loss += p.last_training_loss();
      ++early_count;
    }
  }
  double late_loss = 0.0;
  int late_count = 0;
  for (int i = 60; i < 400; ++i) {
    p.observe(i % 2 == 0 ? 30.0 : 300.0);
    if (i >= 360) {
      late_loss += p.last_training_loss();
      ++late_count;
    }
  }
  ASSERT_GT(early_count, 0);
  ASSERT_GT(late_count, 0);
  EXPECT_LT(late_loss / late_count, 0.5 * early_loss / early_count);
}

TEST(LstmPredictor, AccuracyBeatsSlidingMeanOnPeriodicSignal) {
  // Downstream ablation (paper argument): LSTM vs the linear baseline on a
  // deterministic periodic inter-arrival pattern.
  LstmPredictorOptions o;
  o.lookback = 12;
  o.hidden_units = 16;
  o.train_interval = 1;
  o.train_windows = 3;
  o.learning_rate = 5e-3;
  LstmPredictor lstm(o);
  SlidingMeanPredictor mean(12, 100.0);

  auto signal = [](int i) { return i % 3 == 2 ? 600.0 : 60.0; };
  // Warm up both predictors.
  for (int i = 0; i < 900; ++i) {
    lstm.observe(signal(i));
    mean.observe(signal(i));
  }
  double lstm_err = 0.0, mean_err = 0.0;
  for (int i = 900; i < 960; ++i) {
    const double target = signal(i);
    lstm_err += std::abs(lstm.predict() - target);
    mean_err += std::abs(mean.predict() - target);
    lstm.observe(target);
    mean.observe(target);
  }
  EXPECT_LT(lstm_err, mean_err);
}

TEST(LstmPredictor, TrainWindowValidation) {
  LstmPredictorOptions o;
  o.lookback = 5;
  LstmPredictor p(o);
  for (int i = 0; i < 10; ++i) p.observe(10.0);
  EXPECT_THROW(p.train_window(3), std::invalid_argument);    // < lookback
  EXPECT_THROW(p.train_window(100), std::invalid_argument);  // past history
  EXPECT_GE(p.train_window(7), 0.0);
}

TEST(MakePredictor, FactoryDispatch) {
  LstmPredictorOptions o;
  EXPECT_EQ(make_predictor("lstm", o)->name(), "lstm");
  EXPECT_EQ(make_predictor("last-value", o)->name(), "last-value");
  EXPECT_EQ(make_predictor("sliding-mean", o)->name(), "sliding-mean");
  EXPECT_EQ(make_predictor("ar", o)->name(), "ar");
  EXPECT_THROW(make_predictor("nope", o), std::invalid_argument);
}

TEST(ArPredictor, ConstructionValidation) {
  EXPECT_THROW(ArPredictor(0), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 0), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 32, 5), std::invalid_argument);
  EXPECT_THROW(ArPredictor(4, 600.0, 32, 1024, -1.0), std::invalid_argument);
}

TEST(ArPredictor, FallsBackBeforeFitting) {
  ArPredictor p(4, 123.0);
  EXPECT_DOUBLE_EQ(p.predict(), 123.0);
  p.observe(50.0);
  EXPECT_DOUBLE_EQ(p.predict(), 50.0);  // last value until first refit
  EXPECT_FALSE(p.fitted());
}

TEST(ArPredictor, RecoversExactArOneProcess) {
  // x_t = 0.5 x_{t-1} + 20 exactly: after fitting, predictions must be
  // near-exact and coefficients close to the generating ones.
  ArPredictor p(2, 100.0, /*refit_interval=*/16);
  double x = 40.0;
  for (int i = 0; i < 400; ++i) {
    p.observe(x);
    x = 0.5 * x + 20.0;
  }
  ASSERT_TRUE(p.fitted());
  const double expected_next = 0.5 * x + 20.0;
  (void)expected_next;
  p.observe(x);
  EXPECT_NEAR(p.predict(), 0.5 * x + 20.0, 1.0);
}

TEST(ArPredictor, LearnsAlternatingPattern) {
  // 30, 300, 30, 300...: an AR(2) model captures this exactly
  // (x_t = x_{t-2}), unlike the sliding mean.
  ArPredictor ar(2, 100.0, 8);
  SlidingMeanPredictor mean(8, 100.0);
  for (int i = 0; i < 300; ++i) {
    const double v = i % 2 == 0 ? 30.0 : 300.0;
    ar.observe(v);
    mean.observe(v);
  }
  // Next value is 30 (i=300 even).
  EXPECT_NEAR(ar.predict(), 30.0, 5.0);
  EXPECT_NEAR(mean.predict(), 165.0, 5.0);  // the linear-mean failure mode
}

TEST(ArPredictor, RejectsNegativeObservation) {
  ArPredictor p(2);
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(ArPredictor, PredictionsNeverNegative) {
  ArPredictor p(3, 10.0, 8);
  common::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    p.observe(rng.exponential(0.1));
    EXPECT_GE(p.predict(), 0.0);
  }
}

// ---- WindowPredictor (O(1) rolling-sum predictor) --------------------------

TEST(WindowPredictor, RoundsWindowUpToPowerOfTwoAndStartsAtPrior) {
  WindowPredictor p(/*window=*/5, /*prior_s=*/100.0);
  EXPECT_EQ(p.window(), 8u);  // 5 -> 8
  EXPECT_DOUBLE_EQ(p.predict(), 100.0);
  EXPECT_EQ(p.name(), "window");
}

TEST(WindowPredictor, BlendsPriorOutSampleBySample) {
  WindowPredictor p(/*window=*/4, /*prior_s=*/40.0);
  p.observe(80.0);
  // Ring now holds {80, 40, 40, 40}.
  EXPECT_DOUBLE_EQ(p.predict(), (80.0 + 3 * 40.0) / 4.0);
}

TEST(WindowPredictor, MatchesBruteForceMeanOfLastWindow) {
  const std::size_t window = 8;
  WindowPredictor p(window, /*prior_s=*/10.0);
  common::Rng rng(99);
  std::vector<double> seen;
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform() * 500.0;
    p.observe(v);
    seen.push_back(v);
    if (seen.size() >= window) {
      double sum = 0.0;
      for (std::size_t j = seen.size() - window; j < seen.size(); ++j) sum += seen[j];
      EXPECT_NEAR(p.predict(), sum / static_cast<double>(window), 1e-9);
    }
  }
}

TEST(WindowPredictor, Validation) {
  EXPECT_THROW(WindowPredictor(0, 10.0), std::invalid_argument);
  EXPECT_THROW(WindowPredictor(4, 0.0), std::invalid_argument);
  WindowPredictor p(4, 10.0);
  EXPECT_THROW(p.observe(-1.0), std::invalid_argument);
}

TEST(WindowPredictor, FactoryBuildsItFromLookback) {
  LstmPredictorOptions opts;
  opts.lookback = 5;
  opts.prior_s = 33.0;
  const auto p = make_predictor("window", opts);
  EXPECT_EQ(p->name(), "window");
  EXPECT_DOUBLE_EQ(p->predict(), 33.0);
}

}  // namespace
}  // namespace hcrl::core
