#include "core/knowledge_extractor.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/span.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/independence.h"

namespace cdi::core {

namespace {

/// |corr| treating NaN results as 0.
double AbsCorr(cdi::DoubleSpan a, cdi::DoubleSpan b) {
  const double r = stats::PearsonCorrelation(a, b);
  return std::isnan(r) ? 0.0 : std::fabs(r);
}

std::size_t PairwiseCount(cdi::DoubleSpan a, cdi::DoubleSpan b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (!std::isnan(a[i]) && !std::isnan(b[i])) ++n;
  }
  return n;
}

/// A numeric column with the rank order and 3-bin codes its pairwise
/// relevance statistics need, computed once.
struct Ranked {
  Ranked(cdi::DoubleSpan v, bool binned)
      : vals(v), order(stats::ValueOrder(v)) {
    if (binned) bins = stats::QuantileBin(vals, order, 3);
  }

  cdi::DoubleSpan vals;
  std::vector<std::size_t> order;
  std::vector<int> bins;
};

/// Outlier-robust association: max of |Pearson| and |Spearman|.
double RobustAbsCorr(const Ranked& a, const Ranked& b) {
  const double s =
      stats::SpearmanCorrelation(a.vals, a.order, b.vals, b.order);
  return std::max(AbsCorr(a.vals, b.vals), std::isnan(s) ? 0.0 : std::fabs(s));
}

}  // namespace

Result<ExtractionResult> KnowledgeExtractor::Extract(
    const table::Table& input, const std::string& entity_column,
    const std::string& exposure, const std::string& outcome,
    LatencyMeter* meter, const CancelToken* cancel) const {
  CDI_ASSIGN_OR_RETURN(const table::Column* key_col,
                       input.GetColumn(entity_column));
  if (key_col->type() != table::DataType::kString) {
    return Status::InvalidArgument("entity column must be a string column");
  }
  CDI_ASSIGN_OR_RETURN(const table::Column* tcol, input.GetColumn(exposure));
  CDI_ASSIGN_OR_RETURN(const table::Column* ocol, input.GetColumn(outcome));
  // Zero-copy views over `input`, which outlives every use below (the
  // augmented copy is assembled separately).
  const DoubleSpan t_vals = tcol->View();
  const DoubleSpan o_vals = ocol->View();
  // Relevance references: the exposure, the outcome, and every observed
  // numeric input attribute — an extracted attribute associated with any
  // variable already in the analysis is a candidate parent/child of it and
  // therefore relevant for the causal DAG. Each reference is sorted and
  // binned once; a candidate pays one sort and one binning of its own.
  const bool binned = options_.nonlinear_relevance;
  std::vector<Ranked> references = {Ranked(t_vals, binned),
                                    Ranked(o_vals, binned)};
  for (const auto& name : input.ColumnNames()) {
    if (name == entity_column || name == exposure || name == outcome) continue;
    auto col = input.GetColumn(name);
    if (col.ok() && table::IsNumeric((*col)->type())) {
      references.emplace_back((*col)->View(), binned);
    }
  }
  // Relevance of a numeric column: strongest robust association with any
  // reference, with its significance. References 0 and 1 are the exposure
  // and the outcome.
  auto score_relevance = [&](DoubleSpan vals,
                             double* corr_t, double* corr_o,
                             double* relevance, bool* significant) {
    const Ranked cand(vals, binned);
    *relevance = 0.0;
    double best_p = 1.0;
    for (std::size_t k = 0; k < references.size(); ++k) {
      const double r = RobustAbsCorr(cand, references[k]);
      if (k == 0) *corr_t = r;
      if (k == 1) *corr_o = r;
      const std::size_t n = PairwiseCount(vals, references[k].vals);
      best_p = std::min(best_p, stats::FisherZPValue(r, n, 0));
      *relevance = std::max(*relevance, r);
    }
    if (binned) {
      // Binned chi-square catches non-monotone associations Pearson and
      // Spearman both miss (e.g. a U-shaped confounder). Cramer's V serves
      // as its effect size for the magnitude floor.
      for (const auto& ref : references) {
        auto r = stats::ChiSquareIndependence(cand.bins, ref.bins);
        if (r.ok()) {
          best_p = std::min(best_p, r->p_value);
          if (r->p_value < options_.relevance_alpha) {
            *relevance = std::max(*relevance, r->strength);
          }
        }
      }
    }
    // Bonferroni across the reference columns, so pure-noise attributes do
    // not slip in just because many references were tried.
    *significant =
        best_p < options_.relevance_alpha /
                     static_cast<double>(references.size());
  };

  std::vector<std::string> keys;
  keys.reserve(input.num_rows());
  for (std::size_t r = 0; r < input.num_rows(); ++r) {
    keys.push_back(key_col->IsNull(r) ? "" : key_col->StringAt(r));
  }

  ExtractionResult result;
  result.augmented = input;

  struct Candidate {
    table::Column column;
    ExtractedAttribute info;
    double relevance = 0.0;
    bool significant = true;
  };
  std::vector<Candidate> candidates;

  // ---- Knowledge-graph extraction. ---------------------------------------
  if (kg_ != nullptr) {
    CDI_ASSIGN_OR_RETURN(
        table::Table kg_table,
        kg_->ExtractProperties(keys, entity_column, options_.follow_kg_links,
                               meter));
    for (std::size_t c = 0; c < kg_table.num_cols(); ++c) {
      table::Column& col = kg_table.MutableColumnAt(c);
      CDI_RETURN_IF_ERROR(CheckCancel(cancel));
      ++result.kg_columns_found;
      Candidate cand{std::move(col), {}, 0.0};
      cand.info.name = cand.column.name();
      cand.info.source = "knowledge_graph";
      if (table::IsNumeric(cand.column.type()) ||
          cand.column.type() == table::DataType::kBool) {
        score_relevance(cand.column.View(), &cand.info.corr_with_exposure,
                        &cand.info.corr_with_outcome, &cand.relevance,
                        &cand.significant);
      } else {
        cand.relevance = 1.0;  // strings judged later by the organizer
        cand.significant = true;
      }
      candidates.push_back(std::move(cand));
    }
  }

  // ---- Data-lake extraction. ----------------------------------------------
  if (lake_ != nullptr) {
    std::vector<knowledge::DataLake::JoinedColumn> joined =
        lake_->JoinNumericColumns(keys, options_.min_containment, meter);
    // COCOA-style ranking of the joined columns by |Pearson| with a target;
    // a column whose correlation is undefined is left out of that ranking.
    auto rank_by = [&](DoubleSpan target) {
      std::vector<std::pair<double, std::size_t>> ranked;
      for (std::size_t i = 0; i < joined.size(); ++i) {
        const double r = stats::PearsonCorrelation(joined[i].values, target);
        if (!std::isnan(r)) ranked.emplace_back(std::fabs(r), i);
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first;
                       });
      return ranked;
    };
    // Candidates by association with the outcome, then with the exposure;
    // a (table, column) pair reached again (another key column, or the
    // second ranking) is skipped. Both rankings are taken before any
    // column's values move into its candidate.
    const auto by_outcome = rank_by(o_vals);
    const auto by_exposure = rank_by(t_vals);
    std::set<std::pair<std::size_t, std::string>> seen;
    for (const auto* ranked : {&by_outcome, &by_exposure}) {
      for (const auto& entry : *ranked) {
        knowledge::DataLake::JoinedColumn& jc = joined[entry.second];
        if (!seen.insert({jc.table_index, jc.value_column}).second) continue;
        CDI_RETURN_IF_ERROR(CheckCancel(cancel));
        ++result.lake_columns_found;
        Candidate cand{
            table::Column::FromDoubles(jc.value_column, std::move(jc.values)),
            {},
            0.0};
        cand.info.name = jc.value_column;
        cand.info.source = lake_->tables()[jc.table_index].name();
        score_relevance(cand.column.View(), &cand.info.corr_with_exposure,
                        &cand.info.corr_with_outcome, &cand.relevance,
                        &cand.significant);
        candidates.push_back(std::move(cand));
      }
    }
  }

  // ---- Relevance filter + assembly. ----------------------------------------
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.relevance > b.relevance;
                   });
  int kept = 0;
  for (auto& cand : candidates) {
    if (cand.relevance < options_.min_relevance || !cand.significant) {
      cand.info.kept = false;
      cand.info.drop_reason = "irrelevant";
    } else if (options_.max_attributes >= 0 &&
               kept >= options_.max_attributes) {
      cand.info.kept = false;
      cand.info.drop_reason = "attribute-budget";
    } else if (result.augmented.HasColumn(cand.info.name)) {
      cand.info.kept = false;
      cand.info.drop_reason = "duplicate-name";
    } else {
      CDI_RETURN_IF_ERROR(result.augmented.AddColumn(std::move(cand.column)));
      ++kept;
    }
    result.attributes.push_back(std::move(cand.info));
  }
  return result;
}

}  // namespace cdi::core
