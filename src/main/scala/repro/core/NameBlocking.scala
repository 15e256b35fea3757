package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Name extraction and the name-based block collection B_N (Heuristic H1).
  *
  * Entire name values (literals of the top-k most important attributes) act
  * as blocking keys. A block containing exactly one entity from each KB
  * indicates a matching pair: two entities match if they, and only they,
  * share the same name.
  */
object NameBlocking {

  /** Distinct (eid, name): lower-cased, trimmed values of the name attrs.
    * Being distinct, a name's rows count its entities in the blocks below.
    */
  def names(triples: DataFrame, nameAttrs: Seq[String]): DataFrame =
    KB.literals(triples)
      .where(col(KB.Pred).isin(nameAttrs: _*))
      .select(col(KB.Eid), lower(trim(col(KB.Lit))).as("name"))
      .where(length(col("name")) > 0)
      .distinct()

  /** Cross-KB name blocks: (name, n1, n2, comparisons) for names on both sides. */
  def blocks(names1: DataFrame, names2: DataFrame): DataFrame = {
    val b1 = names1.groupBy("name").agg(count(lit(1)).as("n1"))
    val b2 = names2.groupBy("name").agg(count(lit(1)).as("n2"))
    b1.join(b2, "name").withColumn("comparisons", col("n1") * col("n2"))
  }

  /** H1 matches: name blocks of size exactly 1 x 1. */
  def h1Matches(names1: DataFrame, names2: DataFrame): DataFrame = {
    val u1 = names1.groupBy("name")
      .agg(count(lit(1)).as("c1"), min(KB.Eid).as("e1"))
      .where(col("c1") === 1)
    val u2 = names2.groupBy("name")
      .agg(count(lit(1)).as("c2"), min(KB.Eid).as("e2"))
      .where(col("c2") === 1)
    u1.join(u2, "name").select("e1", "e2").distinct()
  }
}
