package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Parameters of the MinoanER matching process (paper defaults). */
final case class MinoanERParams(
    K: Int = 15,          // candidate matches per entity from values and neighbors
    N: Int = 3,           // most important relations per KB
    k: Int = 2,           // most distinctive attributes per KB serving as names
    theta: Double = 0.6,  // trade-off value-based vs neighbor-based candidates
    purgeSmooth: Double = 1.025)

/** The matches and the evidence they were decided on, which the baselines
  * and the report tables read instead of deriving it again.
  */
final case class MinoanERResult(
    matches: DataFrame,          // (e1, e2, heuristic)
    nameAttrs1: Seq[String],
    nameAttrs2: Seq[String],
    topRels1: Seq[String],
    topRels2: Seq[String],
    names1: DataFrame,           // (eid, name)
    names2: DataFrame,
    tokens1: DataFrame,          // distinct (eid, token)
    tokens2: DataFrame,
    neighbors1: DataFrame,       // (eid, nbr) via the top relations
    neighbors2: DataFrame,
    nameBlocks: DataFrame,       // (name, n1, n2, comparisons)
    tokenBlocksAll: DataFrame,   // pre-purging (token, n1, n2, comparisons)
    tokenBlocks: DataFrame,      // post-purging
    valueSims: DataFrame,        // (e1, e2, vsim)
    neighborSims: DataFrame,     // (e1, e2, nsim)
    h1Matches: DataFrame)        // (e1, e2, heuristic = "H1")

/** The MinoanER non-iterative matching process.
  *
  * M(ei, ej) = (H1 ∨ H2 ∨ H3) ∧ H4 over the schema-agnostic block
  * collections B_N (whole-name blocks) and B_T (purged token blocks); all
  * similarity evidence — values, names, neighbors — is derived from block
  * statistics alone, with no schema alignment and no iteration.
  *
  * `resolve` runs only the Spark jobs its driver-side decisions need: one
  * statistics job per KB and the purging histogram. Matching stays lazy;
  * every intermediate read more than once (tokens, blocks, sims, H1 and H2
  * matches, the final matches) is persisted, so the first job that needs
  * one computes it and later jobs read it from memory.
  */
object MinoanER {

  def resolve(spark: SparkSession,
              kb1: DataFrame,
              kb2: DataFrame,
              params: MinoanERParams = MinoanERParams()): MinoanERResult = {

    // Statistics: distinctive name attributes and important relations.
    val stats1     = AttributeStats.of(kb1)
    val stats2     = AttributeStats.of(kb2)
    val nameAttrs1 = stats1.nameAttributes(params.k)
    val nameAttrs2 = stats2.nameAttributes(params.k)
    val topRels1   = stats1.topRelations(params.N)
    val topRels2   = stats2.topRelations(params.N)

    // B_N and H1.
    val names1 = NameBlocking.names(kb1, nameAttrs1)
    val names2 = NameBlocking.names(kb2, nameAttrs2)
    val bn     = NameBlocking.blocks(names1, names2)
    val m1 = NameBlocking.h1Matches(names1, names2)
      .withColumn("heuristic", lit("H1")).cache()

    // B_T, purging, valueSim.
    val tok1     = Tokenizer.entityTokens(kb1).cache()
    val tok2     = Tokenizer.entityTokens(kb2).cache()
    val btAll    = TokenBlocking.blocks(tok1, tok2).cache()
    val btKept   = TokenBlocking.purge(btAll, params.purgeSmooth).cache()
    val weights  = ValueSim.tokenWeights(btKept)
    val vs       = ValueSim.pairSims(tok1, tok2, weights).cache()

    // Neighbor similarity over the top-N relations.
    val nbrs1 = NeighborSim.topNeighbors(kb1, topRels1)
    val nbrs2 = NeighborSim.topNeighbors(kb2, topRels2)
    val ns    = NeighborSim.pairSims(nbrs1, nbrs2, vs).cache()

    // H2 on entities unmatched by H1.
    val m2 = Heuristics.h2(vs, m1.select("e1"), m1.select("e2"))
      .withColumn("heuristic", lit("H2")).cache()

    // H3 on entities unmatched by H1 and H2.
    val matched1 = m1.select("e1").union(m2.select("e1"))
    val matched2 = m1.select("e2").union(m2.select("e2"))
    val m3 = Heuristics.h3(vs, ns, matched1, matched2, params.K, params.theta)
      .withColumn("heuristic", lit("H3"))

    // H4 verification of the disjunction.
    val all     = m1.unionByName(m2).unionByName(m3)
    val matches = Heuristics.h4(all, vs, ns, params.K).cache()

    MinoanERResult(matches, nameAttrs1, nameAttrs2, topRels1, topRels2,
                   names1, names2, tok1, tok2, nbrs1, nbrs2, bn, btAll, btKept, vs, ns, m1)
  }

  /** The distinct (e1, e2) pairs that share a block of B_N or a kept block of
    * B_T: the comparisons BSL makes, and the pairs Table II's blocking recall
    * counts.
    */
  def candidatePairs(names1: DataFrame, names2: DataFrame,
                     tokens1: DataFrame, tokens2: DataFrame,
                     keptBlocks: DataFrame): DataFrame = {
    def coOccurring(keys1: DataFrame, keys2: DataFrame, key: String): DataFrame =
      keys1.select(col(KB.Eid).as("e1"), col(key))
        .join(keys2.select(col(KB.Eid).as("e2"), col(key)), key)
        .select("e1", "e2")
    coOccurring(names1, names2, "name")
      .union(coOccurring(tokens1.join(keptBlocks.select("token"), "token"), tokens2, "token"))
      .distinct()
  }
}
