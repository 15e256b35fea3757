package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import scala.collection.mutable

/** One layer of the traced run: wall time, Spark work, output rows and extras. */
final case class LayerSpan(name: String, wallS: Double, counts: LayerCounts, rows: Long,
                           extras: Map[String, Double] = Map.empty)

final case class TracedRun(spans: Seq[LayerSpan], matches: Seq[Match], prf: PRF) {
  def totalS: Double = spans.map(_.wallS).sum
}

/** MinoanER.resolve composed layer by layer from the public functions of
  * `repro.core`, in resolve's order, with every layer output persisted and
  * counted inside that layer's span. Forcing each layer removes the
  * recomputation of the lazy lineage, so the traced total is not the untraced
  * unit's time. The caller compares the resulting match digest with the
  * untraced resolve's, so this wiring cannot drift from the program unseen.
  * The extras (block statistics, H4's proposed count) and the final collect
  * run outside the layer spans, so each span holds only resolve's own work.
  */
object TracedResolve {

  /** Listener label of the work only the benchmark does (the extras and the
    * final collect); it is kept out of every layer's span and not reported.
    */
  val Aside = "trace.aside"

  def run(listener: LayerListener, kb1: DataFrame, kb2: DataFrame, gt: DataFrame): TracedRun = {
    val params = MinoanERParams()
    val spans = mutable.ArrayBuffer.empty[LayerSpan]
    listener.take()

    def layer[T](name: String)(body: => (T, Long)): T = {
      val t0 = System.nanoTime()
      val (out, rows) = listener.within(name)(body)
      val wall = (System.nanoTime() - t0) / 1e9
      val counts = listener.take().getOrElse(name, LayerCounts.Zero)
      spans += LayerSpan(name, wall, counts, rows)
      out
    }
    def aside[T](body: => T): T = {
      val out = listener.within(Aside)(body)
      listener.take()
      out
    }
    def addExtras(extras: (String, Double)*): Unit =
      spans(spans.size - 1) = spans.last.copy(extras = extras.toMap)
    def force(df: DataFrame): (DataFrame, Long) = {
      val c = df.cache()
      (c, c.count())
    }
    def frac(part: Double, whole: Double): Double = if (whole == 0) 0.0 else part / whole

    val (nameAttrs1, nameAttrs2, topRels1, topRels2) = layer("AttributeStats") {
      val a1 = AttributeStats.topKNameAttributes(kb1, params.k)
      val a2 = AttributeStats.topKNameAttributes(kb2, params.k)
      val r1 = AttributeStats.topNRelations(kb1, params.N)
      val r2 = AttributeStats.topNRelations(kb2, params.N)
      ((a1, a2, r1, r2), (a1.size + a2.size + r1.size + r2.size).toLong)
    }

    val m1 = layer("NameBlocking") {
      val (names1, _) = force(NameBlocking.names(kb1, nameAttrs1))
      val (names2, _) = force(NameBlocking.names(kb2, nameAttrs2))
      force(NameBlocking.blocks(names1, names2))
      force(NameBlocking.h1Matches(names1, names2).withColumn("heuristic", lit("H1")))
    }

    val (tok1, tok2) = layer("Tokenizer") {
      val (t1, n1) = force(Tokenizer.entityTokens(kb1))
      val (t2, n2) = force(Tokenizer.entityTokens(kb2))
      ((t1, t2), n1 + n2)
    }

    val (btAll, btKept) = layer("TokenBlocking") {
      val (all, _) = force(TokenBlocking.blocks(tok1, tok2))
      val (kept, nKept) = force(TokenBlocking.purge(all, params.purgeSmooth))
      ((all, kept), nKept)
    }
    val ((nAll, cAll), (_, cKept)) = aside((TokenBlocking.stats(btAll), TokenBlocking.stats(btKept)))
    addExtras("blocks_all" -> nAll.toDouble, "kept_comparisons_frac" -> frac(cKept, cAll))

    val vs = layer("ValueSim") {
      force(ValueSim.pairSims(tok1, tok2, ValueSim.tokenWeights(btKept)))
    }

    val ns = layer("NeighborSim") {
      val nbrs1 = NeighborSim.topNeighbors(kb1, topRels1)
      val nbrs2 = NeighborSim.topNeighbors(kb2, topRels2)
      force(NeighborSim.pairSims(nbrs1, nbrs2, vs))
    }

    val m2 = layer("Heuristics.h2") {
      force(Heuristics.h2(vs, m1.select("e1"), m1.select("e2")).withColumn("heuristic", lit("H2")))
    }

    val m3 = layer("Heuristics.h3") {
      val matched1 = m1.select("e1").union(m2.select("e1"))
      val matched2 = m1.select("e2").union(m2.select("e2"))
      force(Heuristics.h3(vs, ns, matched1, matched2, params.K, params.theta)
              .withColumn("heuristic", lit("H3")))
    }

    val proposed = m1.unionByName(m2).unionByName(m3)
    val matches = layer("Heuristics.h4") {
      force(Heuristics.h4(proposed, vs, ns, params.K))
    }
    val (nProposed, collected) = aside((proposed.count(), Checks.matches(matches.collect())))
    addExtras("proposed" -> nProposed.toDouble, "kept_frac" -> frac(collected.size, nProposed))

    val prf = layer("Evaluation") {
      val p = Evaluation.evaluateOnGtE1(matches, gt)
      (p, p.predicted)
    }

    TracedRun(spans.toSeq, collected, prf)
  }
}
