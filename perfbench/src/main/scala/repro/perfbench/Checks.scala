package repro.perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import org.apache.spark.sql.Row
import repro.core.PRF

/** One collected match. */
final case class Match(e1: Long, e2: Long, heuristic: String)

object Checks {

  val Tags: Set[String] = Set("H1", "H2", "H3")

  def matches(rows: Array[Row]): Seq[Match] =
    rows.toSeq.map(r => Match(r.getAs[Long]("e1"), r.getAs[Long]("e2"), r.getAs[String]("heuristic")))

  /** Order-independent SHA-256 of the (e1, e2, heuristic) set. */
  def digest(ms: Seq[Match]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    for (line <- ms.map(m => s"${m.e1}\t${m.e2}\t${m.heuristic}\n").sorted)
      md.update(line.getBytes(StandardCharsets.UTF_8))
    md.digest().map(b => f"$b%02x").mkString
  }

  def perHeuristic(ms: Seq[Match]): Map[String, Int] =
    ms.groupBy(_.heuristic).view.mapValues(_.size).toMap

  /** Evaluation.evaluateOnGtE1 recomputed on the driver. */
  def driverPrf(ms: Seq[Match], gt: Set[(Long, Long)]): PRF = {
    val gtE1 = gt.map(_._1)
    val predicted = ms.collect { case m if gtE1(m.e1) => (m.e1, m.e2) }.toSet
    PRF(predicted.count(gt), predicted.size, gt.size)
  }

  /** Every failed check on one unit's output; empty when the unit is correct. */
  def failures(ms: Seq[Match], prf: PRF, gt: Set[(Long, Long)]): Seq[String] = {
    val pairs = ms.map(m => (m.e1, m.e2))
    val recomputed = driverPrf(ms, gt)
    Seq(
      Option.when(prf != recomputed)(s"Evaluation gives $prf, the driver recomputes $recomputed"),
      Option.when(pairs.distinct.size != pairs.size)(s"${pairs.size - pairs.distinct.size} duplicate (e1, e2) pairs"),
      Option.when(!ms.forall(m => Tags(m.heuristic)))(
        s"unknown heuristic tags ${ms.map(_.heuristic).distinct.filterNot(Tags).mkString(",")}"),
    ).flatten
  }
}
