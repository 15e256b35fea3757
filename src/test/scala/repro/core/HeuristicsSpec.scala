package repro.core

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.DataFrame

class HeuristicsSpec extends SparkSpec {
  import spark.implicits._

  private def e1s(ids: Long*): DataFrame = ids.toDF("e1")
  private def e2s(ids: Long*): DataFrame = ids.toDF("e2")
  private val none1 = Seq.empty[Long].toDF("e1")
  private val none2 = Seq.empty[Long].toDF("e2")

  // ------------------------------------------------------------------- H2

  test("H2 matches the top candidate when vmax >= 1") {
    val vs = Seq((0L, 9L, 1.5), (0L, 8L, 0.9)).toDF("e1", "e2", "vsim")
    val m = Heuristics.h2(vs, none1, none2).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 9L)))
  }

  test("H2 rejects entities whose best candidate is below 1") {
    val vs = Seq((0L, 9L, 0.99)).toDF("e1", "e2", "vsim")
    assert(Heuristics.h2(vs, none1, none2).count() == 0)
  }

  test("H2 takes only the best candidate even if several exceed 1") {
    val vs = Seq((0L, 9L, 2.0), (0L, 8L, 1.5)).toDF("e1", "e2", "vsim")
    val m = Heuristics.h2(vs, none1, none2).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 9L)))
  }

  test("H2 breaks vsim ties by the smaller e2 id") {
    val vs = Seq((0L, 9L, 1.5), (0L, 3L, 1.5)).toDF("e1", "e2", "vsim")
    val m = Heuristics.h2(vs, none1, none2).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 3L)))
  }

  test("H2 skips KB1 entities already matched") {
    val vs = Seq((0L, 9L, 2.0), (1L, 8L, 2.0)).toDF("e1", "e2", "vsim")
    val m = Heuristics.h2(vs, e1s(0L), none2).as[(Long, Long)].collect().toSet
    assert(m == Set((1L, 8L)))
  }

  test("H2 skips KB2 entities already matched") {
    val vs = Seq((0L, 9L, 2.0), (0L, 8L, 1.2)).toDF("e1", "e2", "vsim")
    val m = Heuristics.h2(vs, none1, e2s(9L)).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 8L)))
  }

  test("H2 matches independently per KB1 entity") {
    val vs = Seq((0L, 9L, 1.1), (1L, 9L, 1.2)).toDF("e1", "e2", "vsim")
    val m = Heuristics.h2(vs, none1, none2).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 9L), (1L, 9L))) // H2 is per-entity; 1-1 is H4's job
  }

  // ------------------------------------------------------------------- H3

  test("H3 picks the top aggregate candidate") {
    // value list: 9 (rank1), 8 (rank2); neighbor list: 8 only.
    // theta=0.6: score(9)=0.6*1=0.6; score(8)=0.6*0.5+0.4*1=0.7.
    val vs = Seq((0L, 9L, 0.9), (0L, 8L, 0.5)).toDF("e1", "e2", "vsim")
    val ns = Seq((0L, 8L, 2.0)).toDF("e1", "e2", "nsim")
    val m = Heuristics.h3(vs, ns, none1, none2, K = 15, theta = 0.6)
      .as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 8L)))
  }

  test("H3 with theta=1 reduces to the value ranking") {
    val vs = Seq((0L, 9L, 0.9), (0L, 8L, 0.5)).toDF("e1", "e2", "vsim")
    val ns = Seq((0L, 8L, 2.0)).toDF("e1", "e2", "nsim")
    val m = Heuristics.h3(vs, ns, none1, none2, K = 15, theta = 1.0)
      .as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 9L)))
  }

  test("H3 matches every unmatched entity to its best candidate") {
    val vs = Seq((0L, 9L, 0.2), (1L, 8L, 0.1)).toDF("e1", "e2", "vsim")
    val ns = Seq.empty[(Long, Long, Double)].toDF("e1", "e2", "nsim")
    assert(Heuristics.h3(vs, ns, none1, none2, 15, 0.6).count() == 2)
  }

  test("H3 ignores zero neighbor similarities") {
    // nsim=0 rows must not enter the neighbor list.
    val vs = Seq((0L, 9L, 0.9), (0L, 8L, 0.5)).toDF("e1", "e2", "vsim")
    val ns = Seq((0L, 8L, 0.0)).toDF("e1", "e2", "nsim")
    val m = Heuristics.h3(vs, ns, none1, none2, 15, 0.6).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 9L)))
  }

  test("H3 excludes matched entities from both sides") {
    val vs = Seq((0L, 9L, 0.9), (1L, 9L, 0.8), (1L, 7L, 0.1)).toDF("e1", "e2", "vsim")
    val ns = Seq.empty[(Long, Long, Double)].toDF("e1", "e2", "nsim")
    val m = Heuristics.h3(vs, ns, e1s(0L), e2s(9L), 15, 0.6).as[(Long, Long)].collect().toSet
    assert(m == Set((1L, 7L)))
  }

  test("H3 normalized ranks scale with list length") {
    // K=2 truncation: candidates 9,8 kept, 7 dropped; list size 2.
    // score(9) = 0.6*2/2 + 0.4*(neighbor rank of 9: 1/1) = 1.0
    val vs = Seq((0L, 9L, 0.9), (0L, 8L, 0.5), (0L, 7L, 0.4)).toDF("e1", "e2", "vsim")
    val ns = Seq((0L, 9L, 1.0)).toDF("e1", "e2", "nsim")
    val m = Heuristics.h3(vs, ns, none1, none2, K = 2, theta = 0.6)
      .as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 9L)))
  }

  test("H3 candidate outside the value list can win through neighbors") {
    val vs = Seq((0L, 9L, 0.9)).toDF("e1", "e2", "vsim")
    val ns = Seq((0L, 5L, 3.0), (0L, 9L, 0.1)).toDF("e1", "e2", "nsim")
    // score(9) = 0.6*1 + 0.4*0.5 = 0.8 ; score(5) = 0.4*1 = 0.4 -> 9 wins
    val m = Heuristics.h3(vs, ns, none1, none2, 15, 0.6).as[(Long, Long)].collect().toSet
    assert(m == Set((0L, 9L)))
    // with theta=0.1: score(9)=0.1+0.45=0.55 ; score(5)=0.9 -> 5 wins
    val m2 = Heuristics.h3(vs, ns, none1, none2, 15, 0.1).as[(Long, Long)].collect().toSet
    assert(m2 == Set((0L, 5L)))
  }

  test("H2 and H3 ignore duplicate ids in the matched-id sets") {
    val vs = Seq((0L, 9L, 2.0), (1L, 9L, 1.5), (1L, 7L, 1.2), (2L, 6L, 0.3), (3L, 5L, 0.2))
      .toDF("e1", "e2", "vsim")
    val ns = Seq((2L, 6L, 1.0), (3L, 6L, 0.5)).toDF("e1", "e2", "nsim")
    def h2(m1: DataFrame, m2: DataFrame) = Heuristics.h2(vs, m1, m2).as[(Long, Long)].collect().toSet
    def h3(m1: DataFrame, m2: DataFrame) =
      Heuristics.h3(vs, ns, m1, m2, 15, 0.6).as[(Long, Long)].collect().toSet
    assert(h2(e1s(0L, 0L, 3L, 3L), e2s(9L, 9L)) == h2(e1s(0L, 3L), e2s(9L)))
    assert(h2(e1s(0L, 3L), e2s(9L)) == Set((1L, 7L)))
    assert(h3(e1s(0L, 0L, 1L, 1L), e2s(9L, 9L, 7L)) == h3(e1s(0L, 1L), e2s(9L, 7L)))
    assert(h3(e1s(0L, 1L), e2s(9L, 7L)) == Set((2L, 6L), (3L, 5L)))
  }

  test("H3 agrees with a DuckDB oracle of the θ-weighted normalized-rank aggregation") {
    val vs = Seq(
      (0L, 10L, 0.9), (0L, 11L, 0.9), (0L, 12L, 0.5), (0L, 13L, 0.4), // sim tie, K cut
      (1L, 10L, 0.8), (1L, 15L, 0.3), (1L, 16L, 0.2),
      (2L, 16L, 1.0),                                                 // matched e1
      (3L, 17L, 0.2), (3L, 18L, 0.2),                                 // score tie
      (5L, 12L, 0.7), (5L, 20L, 0.6),
      (6L, 30L, 0.9), (6L, 31L, 0.5)).toDF("e1", "e2", "vsim")
    val ns = Seq(
      (0L, 13L, 2.0), (0L, 12L, 1.0), (0L, 14L, 0.5), (0L, 11L, 0.0),
      (1L, 16L, 1.0), (2L, 15L, 3.0),
      (4L, 19L, 0.7), (4L, 18L, 0.7),                                 // neighbor list only
      (5L, 10L, 4.0), (5L, 20L, 1.0),
      (6L, 32L, 2.0), (6L, 31L, 1.0)).toDF("e1", "e2", "nsim") // each list normalized by its own size
    val (m1, m2) = (e1s(2L), e2s(10L))
    // The paper's definition, written independently of the Spark plan: each
    // list is ranked and cut to K on its own, and the two normalized ranks
    // meet in an outer join.
    def oracle(K: Int, theta: Double): String =
      s"""WITH sims AS (
         |  SELECT 'v' AS kind, CAST(e1 AS BIGINT) AS e1, CAST(e2 AS BIGINT) AS e2,
         |         CAST(vsim AS DOUBLE) AS sim FROM vs
         |  UNION ALL
         |  SELECT 'n', CAST(e1 AS BIGINT), CAST(e2 AS BIGINT), CAST(nsim AS DOUBLE) FROM ns
         |  WHERE CAST(nsim AS DOUBLE) > 0),
         |live AS (
         |  SELECT * FROM sims
         |  WHERE e1 NOT IN (SELECT CAST(e1 AS BIGINT) FROM m1)
         |    AND e2 NOT IN (SELECT CAST(e2 AS BIGINT) FROM m2)),
         |ranked AS (
         |  SELECT kind, e1, e2,
         |         row_number() OVER (PARTITION BY kind, e1 ORDER BY sim DESC, e2) AS pos
         |  FROM live),
         |lists AS (
         |  SELECT kind, e1, e2, CAST(count(*) OVER (PARTITION BY kind, e1) - pos + 1 AS DOUBLE)
         |         / count(*) OVER (PARTITION BY kind, e1) AS norm
         |  FROM ranked WHERE pos <= $K),
         |v AS (SELECT e1, e2, norm FROM lists WHERE kind = 'v'),
         |n AS (SELECT e1, e2, norm FROM lists WHERE kind = 'n'),
         |agg AS (
         |  SELECT coalesce(v.e1, n.e1) AS e1, coalesce(v.e2, n.e2) AS e2,
         |         CAST('$theta' AS DOUBLE) * coalesce(v.norm, 0)
         |           + CAST('${1.0 - theta}' AS DOUBLE) * coalesce(n.norm, 0) AS score
         |  FROM v FULL OUTER JOIN n ON v.e1 = n.e1 AND v.e2 = n.e2)
         |SELECT e1, e2 FROM (
         |  SELECT e1, e2, row_number() OVER (PARTITION BY e1 ORDER BY score DESC, e2) AS rn
         |  FROM agg)
         |WHERE rn = 1""".stripMargin
    for ((k, theta) <- Seq((3, 0.6), (1, 0.3), (15, 1.0), (2, 0.0))) {
      val got = Heuristics.h3(vs, ns, m1, m2, k, theta)
      assert(got.count() == 6, (k, theta)) // e1 = 0, 1, 3, 4, 5, 6; 2 is matched
      Oracle.assertEquivalent(got, oracle(k, theta), "vs" -> vs, "ns" -> ns, "m1" -> m1, "m2" -> m2)
    }
  }

  // ------------------------------------------------------------------- H4

  test("H4 keeps reciprocally top-ranked pairs") {
    val cands = Seq((0L, 9L)).toDF("e1", "e2")
    val vs = Seq((0L, 9L, 1.0)).toDF("e1", "e2", "vsim")
    val ns = Seq.empty[(Long, Long, Double)].toDF("e1", "e2", "nsim")
    assert(Heuristics.h4(cands, vs, ns, 15).count() == 1)
  }

  test("H4 discards pairs outside e1's top-K") {
    val cands = Seq((0L, 9L)).toDF("e1", "e2")
    // e1=0's top-1 value candidate is 8, not 9 (K=1).
    val vs = Seq((0L, 8L, 2.0), (0L, 9L, 1.0)).toDF("e1", "e2", "vsim")
    val ns = Seq.empty[(Long, Long, Double)].toDF("e1", "e2", "nsim")
    assert(Heuristics.h4(cands, vs, ns, 1).count() == 0)
  }

  test("H4 discards pairs outside e2's top-K") {
    val cands = Seq((0L, 9L)).toDF("e1", "e2")
    // e2=9's top-1 candidate is e1=5.
    val vs = Seq((0L, 9L, 1.0), (5L, 9L, 2.0)).toDF("e1", "e2", "vsim")
    val ns = Seq.empty[(Long, Long, Double)].toDF("e1", "e2", "nsim")
    assert(Heuristics.h4(cands, vs, ns, 1).count() == 0)
  }

  test("H4 accepts a pair through the neighbor list alone") {
    val cands = Seq((0L, 9L)).toDF("e1", "e2")
    val vs = Seq((0L, 8L, 2.0), (5L, 9L, 2.0)).toDF("e1", "e2", "vsim") // (0,9) not in value lists
    val ns = Seq((0L, 9L, 1.0)).toDF("e1", "e2", "nsim")
    assert(Heuristics.h4(cands, vs, ns, 1).count() == 1)
  }

  test("H4 requires reciprocity from both sides") {
    val cands = Seq((0L, 9L)).toDF("e1", "e2")
    // In e1=0's top-1 list, but e2=9 prefers e1=5 in value AND neighbor.
    val vs = Seq((0L, 9L, 1.0), (5L, 9L, 2.0)).toDF("e1", "e2", "vsim")
    val ns = Seq((5L, 9L, 1.0)).toDF("e1", "e2", "nsim")
    assert(Heuristics.h4(cands, vs, ns, 1).count() == 0)
  }

  test("H4 keeps a pair in both the value and the neighbor top-K exactly once") {
    val cands = Seq((0L, 9L, "H2"), (1L, 8L, "H3")).toDF("e1", "e2", "heuristic")
    val vs = Seq((0L, 9L, 1.0), (1L, 8L, 0.5)).toDF("e1", "e2", "vsim")
    val ns = Seq((0L, 9L, 2.0), (1L, 8L, 1.0)).toDF("e1", "e2", "nsim")
    val kept = Heuristics.h4(cands, vs, ns, 15).as[(Long, Long, String)].collect().toSeq
    assert(kept.sorted == Seq((0L, 9L, "H2"), (1L, 8L, "H3")))
  }

  test("H4 ranks value and neighbor lists separately") {
    // Within K=1, e1=0 prefers 8 by value and 9 by neighbors; e2=9 has only e1=0.
    val cands = Seq((0L, 9L)).toDF("e1", "e2")
    val vs = Seq((0L, 8L, 5.0), (0L, 9L, 1.0)).toDF("e1", "e2", "vsim")
    val ns = Seq((0L, 9L, 0.1), (0L, 8L, 0.05)).toDF("e1", "e2", "nsim")
    assert(Heuristics.h4(cands, vs, ns, 1).count() == 1)
  }

  test("H4 preserves the heuristic tag column") {
    val cands = Seq((0L, 9L, "H1")).toDF("e1", "e2", "heuristic")
    val vs = Seq((0L, 9L, 1.0)).toDF("e1", "e2", "vsim")
    val ns = Seq.empty[(Long, Long, Double)].toDF("e1", "e2", "nsim")
    val kept = Heuristics.h4(cands, vs, ns, 15).collect()
    assert(kept.head.getString(2) == "H1")
  }
}
