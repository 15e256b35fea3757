package repro.core

import repro.SparkSpec
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
