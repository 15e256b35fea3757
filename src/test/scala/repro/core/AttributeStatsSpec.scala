package repro.core

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

class AttributeStatsSpec extends SparkSpec {

  // 4 entities; attr "name" on all 4 with 4 distinct values;
  // attr "cat" on all 4 with 1 distinct value; attr "rare" on 1 entity.
  private def kb = KB.fromRows(spark, Seq(
    KB.TripleRow(0, "name", Some("n0"), None),
    KB.TripleRow(1, "name", Some("n1"), None),
    KB.TripleRow(2, "name", Some("n2"), None),
    KB.TripleRow(3, "name", Some("n3"), None),
    KB.TripleRow(0, "cat", Some("c"), None),
    KB.TripleRow(1, "cat", Some("c"), None),
    KB.TripleRow(2, "cat", Some("c"), None),
    KB.TripleRow(3, "cat", Some("c"), None),
    KB.TripleRow(0, "rare", Some("r0"), None),
    KB.TripleRow(0, "knows", None, Some(1L)),
    KB.TripleRow(1, "knows", None, Some(2L)),
    KB.TripleRow(2, "knows", None, Some(2L)),
    KB.TripleRow(0, "likes", None, Some(3L))))

  private lazy val stats = AttributeStats.of(kb)

  private def statsMap = stats.literals
    .map(p => p.pred -> (p.support, p.discriminability, p.importance)).toMap

  /** The statistics as separate Spark aggregations per predicate kind (the
    * original formulation): support, capped discriminability, importance.
    */
  private def perKindStats(triples: DataFrame, valueCol: String): Map[String, PredStats] = {
    val n = math.max(1L, KB.numEntities(triples)).toDouble
    triples.where(col(valueCol).isNotNull).groupBy("pred")
      .agg(countDistinct("eid").as("ents"), countDistinct(valueCol).as("vals"))
      .withColumn("support", col("ents") / n)
      .withColumn("discriminability", least(lit(1.0), col("vals").cast("double") / col("ents")))
      .withColumn("importance",
        when(col("support") + col("discriminability") > 0,
             lit(2.0) * col("support") * col("discriminability") /
               (col("support") + col("discriminability"))).otherwise(lit(0.0)))
      .select("pred", "support", "discriminability", "importance")
      .collect()
      .map(r => r.getString(0) -> PredStats(r.getString(0), r.getDouble(1), r.getDouble(2), r.getDouble(3)))
      .toMap
  }

  test("support of a universal attribute is 1") {
    assert(math.abs(statsMap("name")._1 - 1.0) < 1e-9)
  }

  test("support of a rare attribute is its entity fraction") {
    assert(math.abs(statsMap("rare")._1 - 0.25) < 1e-9)
  }

  test("discriminability of an all-distinct attribute is 1") {
    assert(math.abs(statsMap("name")._2 - 1.0) < 1e-9)
  }

  test("discriminability of a constant attribute is 1/n") {
    assert(math.abs(statsMap("cat")._2 - 0.25) < 1e-9)
  }

  test("importance is the harmonic mean of support and discriminability") {
    val (s, d, imp) = statsMap("cat")
    assert(math.abs(imp - 2 * s * d / (s + d)) < 1e-9)
  }

  test("name attribute ranks above constant and rare attributes") {
    assert(AttributeStats.topKNameAttributes(kb, 1) == Seq("name"))
  }

  test("topK returns k attributes ordered by importance") {
    val top2 = AttributeStats.topKNameAttributes(kb, 2)
    assert(top2.head == "name" && top2.size == 2)
  }

  test("relation stats cover relation predicates only") {
    val rels = stats.relations.map(_.pred).toSet
    assert(rels == Set("knows", "likes"))
  }

  test("relation support counts subjects") {
    val m = stats.relations.map(p => p.pred -> p.support).toMap
    assert(math.abs(m("knows") - 0.75) < 1e-9)
    assert(math.abs(m("likes") - 0.25) < 1e-9)
  }

  test("relation discriminability counts distinct targets") {
    val m = stats.relations.map(p => p.pred -> p.discriminability).toMap
    assert(math.abs(m("knows") - 2.0 / 3) < 1e-9)
  }

  test("topN relations ranks the well-supported discriminative relation first") {
    assert(AttributeStats.topNRelations(kb, 1) == Seq("knows"))
  }

  test("topN with n larger than relation count returns all") {
    assert(AttributeStats.topNRelations(kb, 5).toSet == Set("knows", "likes"))
  }

  test("the one-pass statistics equal per-kind aggregations bit for bit") {
    assert(stats.literals.map(p => p.pred -> p).toMap == perKindStats(kb, "lit"))
    assert(stats.relations.map(p => p.pred -> p).toMap == perKindStats(kb, "obj"))
  }

  test("rankings are ordered by importance, ties by predicate name") {
    // name (1.0) > cat and rare, which tie at importance 0.4.
    assert(stats.literals.map(_.pred) == Seq("name", "cat", "rare"))
    assert(stats.relations.map(_.pred) == Seq("knows", "likes"))
  }

  test("the one-pass statistics launch a single Spark job") {
    val (_, jobs) = withConf("spark.sql.adaptive.enabled" -> "false") {
      countingJobs(AttributeStats.of(kb))
    }
    assert(jobs == 1)
  }

  test("a KB without relation triples has no top relations") {
    val literalsOnly = KB.literals(kb)
    assert(AttributeStats.topNRelations(literalsOnly, 3).isEmpty)
    assert(AttributeStats.topKNameAttributes(literalsOnly, 1) == Seq("name"))
  }

  test("an empty KB has no statistics") {
    assert(AttributeStats.of(kb.limit(0)) == KBStats(Nil, Nil))
  }

  test("literal attr raw counts agree with DuckDB oracle") {
    val df = KB.literals(kb).groupBy("pred")
      .agg(countDistinct("eid").as("ents"), countDistinct("lit").as("vals"))
    Oracle.assertEquivalent(
      df,
      """SELECT pred, count(DISTINCT eid) AS ents, count(DISTINCT lit) AS vals
        |FROM triples WHERE lit IS NOT NULL GROUP BY pred""".stripMargin,
      "triples" -> kb)
  }

  test("relation raw counts agree with DuckDB oracle") {
    val df = KB.relations(kb).groupBy("pred")
      .agg(countDistinct("eid").as("ents"), countDistinct("obj").as("vals"))
    Oracle.assertEquivalent(
      df,
      """SELECT pred, count(DISTINCT eid) AS ents, count(DISTINCT obj) AS vals
        |FROM triples WHERE obj IS NOT NULL GROUP BY pred""".stripMargin,
      "triples" -> kb)
  }
}
