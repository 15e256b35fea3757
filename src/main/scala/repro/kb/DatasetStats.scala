package repro.kb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{KB, Tokenizer}

object DatasetStats {

  /** Per-KB statistics reproducing the rows of the paper's Table I. */
  final case class Summary(
      entities: Long,
      triples: Long,
      avgTokens: Double,
      attributes: Long,   // distinct literal predicates (type predicate excluded)
      relations: Long,    // distinct entity-valued predicates
      types: Long,        // distinct values of the type predicate
      vocabularies: Long) // distinct namespace prefixes over all predicates

  private def isTypePred = col(KB.Pred).contains(":type")

  def of(kb: DataFrame): Summary = {
    val entities = KB.numEntities(kb)
    val triples  = KB.numTriples(kb)
    val avgTok   = Tokenizer.avgTokensPerEntity(KB.literals(kb).where(!isTypePred))
    val attrs = KB.literals(kb).where(!isTypePred).select(KB.Pred).distinct().count()
    val rels  = KB.relations(kb).select(KB.Pred).distinct().count()
    val types = KB.literals(kb).where(isTypePred).select(KB.Lit).distinct().count()
    val vocab = kb.select(split(col(KB.Pred), ":").getItem(0).as("ns")).distinct().count()
    Summary(entities, triples, avgTok, attrs, rels, types, vocab)
  }
}
