package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBusAccess
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work attributed to one layer. */
final case class LayerCounts(jobs: Long, stages: Long, tasks: Long, taskMs: Long, shuffleWriteBytes: Long) {
  def +(o: LayerCounts): LayerCounts =
    LayerCounts(jobs + o.jobs, stages + o.stages, tasks + o.tasks, taskMs + o.taskMs,
                shuffleWriteBytes + o.shuffleWriteBytes)
  def taskS: Double = taskMs / 1000.0
}

object LayerCounts {
  val Zero: LayerCounts = LayerCounts(0, 0, 0, 0, 0)
}

/** Attributes jobs, stages, tasks, executor run time and shuffle-write bytes
  * to the layer named by the `perfbench.layer` local property of the thread
  * that submitted the job. Setting a local property leaves the query plan
  * unchanged, so untraced units run the same plan with or without it.
  */
final class LayerListener(sc: SparkContext) extends SparkListener {
  import LayerListener.Key

  private val stageLayer = mutable.Map.empty[Int, String]
  private val counts = mutable.Map.empty[String, LayerCounts]

  private def layerOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty(Key)))

  private def add(layer: String, c: LayerCounts): Unit =
    counts(layer) = counts.getOrElse(layer, LayerCounts.Zero) + c

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    layerOf(e.properties).foreach(add(_, LayerCounts.Zero.copy(jobs = 1)))
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    layerOf(e.properties).foreach { l =>
      stageLayer(e.stageInfo.stageId) = l
      add(l, LayerCounts.Zero.copy(stages = 1))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (l <- stageLayer.get(e.stageId); m <- Option(e.taskMetrics))
      add(l, LayerCounts(0, 0, 1, m.executorRunTime, m.shuffleWriteMetrics.bytesWritten))
  }

  /** Runs `body` with its Spark work attributed to `layer`. */
  def within[T](layer: String)(body: => T): T = {
    sc.setLocalProperty(Key, layer)
    try body finally sc.setLocalProperty(Key, null)
  }

  /** Counts since the last call, per layer, once all events so far are delivered. */
  def take(): Map[String, LayerCounts] = {
    ListenerBusAccess.drain(sc)
    synchronized {
      val out = counts.toMap
      counts.clear()
      stageLayer.clear()
      out
    }
  }
}

object LayerListener {
  val Key = "perfbench.layer"

  def register(sc: SparkContext): LayerListener = {
    val l = new LayerListener(sc)
    sc.addSparkListener(l)
    l
  }
}
