package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Importance of one predicate of a KB. */
final case class PredStats(pred: String, support: Double, discriminability: Double, importance: Double)

/** Both predicate rankings of a KB, most important first, ties broken by
  * predicate name.
  */
final case class KBStats(literals: Seq[PredStats], relations: Seq[PredStats]) {

  /** The k most distinctive literal attributes — their values act as names. */
  def nameAttributes(k: Int): Seq[String] = literals.take(k).map(_.pred)

  /** The N most important relations — their targets are "best neighbors". */
  def topRelations(n: Int): Seq[String] = relations.take(n).map(_.pred)
}

/** Predicate-importance statistics.
  *
  * The paper defines the importance of a predicate p in a KB E as the
  * harmonic mean of:
  *   - support(p):          |entities of E containing p| / |E|
  *   - discriminability(p): |distinct objects of p| / |entities containing p|
  *
  * The same definition is applied to literal attributes (to pick the k most
  * distinctive "name" attributes) and to relations (to pick the N most
  * important relations whose targets are an entity's "best neighbors").
  */
object AttributeStats {

  private def predStats(pred: String, ents: Long, vals: Long, nEntities: Double): PredStats = {
    val s = ents / nEntities
    // Multi-valued attributes can have more distinct objects than carrying
    // entities; a ratio above 1 adds no identifying power, so cap at 1.
    val d = math.min(1.0, vals.toDouble / ents)
    PredStats(pred, s, d, if (s + d > 0) 2.0 * s * d / (s + d) else 0.0)
  }

  private val byImportance = Ordering.by[PredStats, (Double, String)](p => (-p.importance, p.pred))(
    Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.String))

  /** Literal-attribute and relation statistics of a KB in one Spark job.
    *
    * One aggregation over the triples, grouped by (kind, pred) and over all
    * rows, counts the carrying entities and distinct objects of every
    * predicate as well as |E|; the importance scores and both rankings are
    * then computed on the driver from those few rows.
    */
  def of(triples: DataFrame): KBStats = {
    val rows = triples
      .select(
        col(KB.Eid), col(KB.Pred),
        when(col(KB.Lit).isNotNull, "lit").when(col(KB.Obj).isNotNull, "rel").as("kind"),
        coalesce(col(KB.Lit), col(KB.Obj).cast("string")).as("value"))
      .groupingSets(Seq(Seq(col("kind"), col(KB.Pred)), Seq()), col("kind"), col(KB.Pred))
      .agg(countDistinct(KB.Eid).as("ents"), countDistinct("value").as("vals"),
           grouping_id().cast("int").as("total"))
      .collect()
    val (totals, preds) = rows.partition(_.getAs[Int]("total") != 0)
    val n = math.max(1L, totals.headOption.fold(0L)(_.getAs[Long]("ents"))).toDouble
    def ranking(kind: String): Seq[PredStats] =
      preds.toSeq
        .filter(_.getAs[String]("kind") == kind)
        .map(r => predStats(r.getAs[String](KB.Pred), r.getAs[Long]("ents"), r.getAs[Long]("vals"), n))
        .sorted(byImportance)
    KBStats(ranking("lit"), ranking("rel"))
  }

  /** [[KBStats.nameAttributes]] of the KB. */
  def topKNameAttributes(triples: DataFrame, k: Int): Seq[String] = of(triples).nameAttributes(k)

  /** [[KBStats.topRelations]] of the KB. */
  def topNRelations(triples: DataFrame, n: Int): Seq[String] = of(triples).topRelations(n)
}
