package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The non-iterative matching heuristics H2, H3 and H4.
  *
  * (H1 lives in [[NameBlocking.h1Matches]] since it is purely a property of
  * the name block collection.)
  *
  * Every heuristic is threshold-free in the paper's sense: H2's `vmax ≥ 1`
  * bound is a property of the similarity definition (a token unique to both
  * sides weighs exactly 1), and H3/H4 use ranks, not similarity cutoffs.
  */
object Heuristics {

  /** Drops the pairs whose e1 or e2 is already matched. The matched-id sets
    * hold a few hundred ids, so they are broadcast; an anti join needs no
    * `distinct` on its build side.
    */
  private def excludeMatched(sims: DataFrame,
                             matchedE1: DataFrame,
                             matchedE2: DataFrame): DataFrame =
    sims.join(broadcast(matchedE1.select("e1")), Seq("e1"), "left_anti")
        .join(broadcast(matchedE2.select("e2")), Seq("e2"), "left_anti")

  /** H2 — value heuristic.
    *
    * For every not-yet-matched KB1 entity, keep its best co-occurring KB2
    * candidate by valueSim; the pair is a match iff vmax ≥ 1.
    */
  def h2(valueSims: DataFrame, matchedE1: DataFrame, matchedE2: DataFrame): DataFrame = {
    val cands = excludeMatched(valueSims, matchedE1, matchedE2)
    val w = Window.partitionBy("e1").orderBy(desc("vsim"), asc("e2"))
    cands.withColumn("rn", row_number().over(w))
      .where(col("rn") === 1 && col("vsim") >= 1.0)
      .select("e1", "e2")
  }

  /** valueSim and non-zero neighborSim as one (e1, e2, kind = "v" | "n", sim) relation. */
  private def kindTagged(valueSims: DataFrame, neighborSims: DataFrame): DataFrame =
    valueSims.select(col("e1"), col("e2"), lit("v").as("kind"), col("vsim").as("sim"))
      .union(neighborSims.where(col("nsim") > 0)
               .select(col("e1"), col("e2"), lit("n").as("kind"), col("nsim").as("sim")))

  /** Every `side` entity's top-K value and neighbor candidates, ranked 1..K
    * in `rn` by sim desc, the smaller `other` id first on ties.
    */
  private def topK(sims: DataFrame, side: String, other: String, K: Int): DataFrame = {
    val w = Window.partitionBy(side, "kind").orderBy(desc("sim"), asc(other))
    sims.withColumn("rn", row_number().over(w)).where(col("rn") <= K)
  }

  /** H3 — rank aggregation heuristic.
    *
    * For every not-yet-matched KB1 entity: rank its candidates by valueSim
    * and (separately) by non-zero neighborSim, each list cut to the top K; a
    * list of size L scores its p-th element (L - p + 1) / L, i.e. 1 for the
    * best and 1/L for the worst. The two normalized ranks are summed with
    * weight θ on the value list and 1-θ on the neighbor list (a candidate in
    * one list only scores 0 in the other); the top-1 aggregate candidate is a
    * match ("there is no better candidate for ei than ej").
    */
  def h3(valueSims: DataFrame,
         neighborSims: DataFrame,
         matchedE1: DataFrame,
         matchedE2: DataFrame,
         K: Int,
         theta: Double): DataFrame = {
    val sims = excludeMatched(kindTagged(valueSims, neighborSims), matchedE1, matchedE2)
    val normRank = (col("lsize") - col("rn") + 1).cast("double") / col("lsize")
    // A pair's score sums at most two terms, so it does not depend on the
    // order Spark adds them in.
    val scores = topK(sims, "e1", "e2", K)
      .withColumn("lsize", count(lit(1)).over(Window.partitionBy("e1", "kind")))
      .groupBy("e1", "e2")
      .agg(sum(when(col("kind") === "v", theta).otherwise(1.0 - theta) * normRank).as("score"))
    val w = Window.partitionBy("e1").orderBy(desc("score"), asc("e2"))
    scores.withColumn("rn", row_number().over(w))
      .where(col("rn") === 1)
      .select("e1", "e2")
  }

  /** H4 — reciprocity heuristic.
    *
    * A candidate match (ei, ej) survives only if ej is among ei's top-K value
    * OR neighbor candidates, AND ei is among ej's top-K value or neighbor
    * candidates. Lists are computed from the full sim tables: reciprocity is
    * a verification of the matches produced by H1–H3. Both sim tables go
    * through one window per side, partitioned by entity and sim kind.
    */
  def h4(candidates: DataFrame,
         valueSims: DataFrame,
         neighborSims: DataFrame,
         K: Int): DataFrame = {
    val sims = kindTagged(valueSims, neighborSims)
    candidates
      .join(topK(sims, "e1", "e2", K).select("e1", "e2"), Seq("e1", "e2"), "left_semi")
      .join(topK(sims, "e2", "e1", K).select("e1", "e2"), Seq("e1", "e2"), "left_semi")
  }
}
