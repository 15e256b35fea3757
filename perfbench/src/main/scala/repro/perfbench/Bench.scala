package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.io.File
import java.lang.management.ManagementFactory
import java.nio.file.Paths
import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.kb._
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** A benchmark workload: one preset KB pair at one scale factor. */
final case class Workload(name: String, preset: KBConfig, scale: Double) {
  def config(seed: Long): KBConfig = preset.scaled(scale).copy(seed = seed)
}

object Workloads {
  // Why each workload is here is recorded in BENCHMARK.json.
  val all: Seq[Workload] = Seq(
    Workload("restaurant", Datasets.restaurant, 1.0),
    Workload("yago", Datasets.yagoImdb, 0.125))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}

/** The benchmark's cached inputs: the two KBs and the ground truth. */
final class Inputs(val kb1: DataFrame, val kb2: DataFrame, val gt: DataFrame) {

  /** Empties Spark's cache, then caches and materialises the inputs again,
    * so that a unit never reads blocks an earlier unit cached.
    */
  def recache(spark: SparkSession): Unit = {
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    Seq(kb1, kb2, gt).foreach(_.cache().count())
  }
}

object Inputs {

  /** The generated pair, written to Parquet under `dir` and read back.
    *
    * KBGen returns local relations, whose rows every task that scans them
    * carries in its serialized partition — a megabyte per task at a few
    * thousand entities — so task size, not the program, would grow with
    * the data. Reading the KBs from files, as KBs are normally read, keeps
    * the tasks small.
    */
  def stored(spark: SparkSession, pair: KBPair, dir: String): Inputs = {
    def roundTrip(df: DataFrame, name: String): DataFrame = {
      df.write.mode("overwrite").parquet(s"$dir/$name")
      spark.read.parquet(s"$dir/$name")
    }
    new Inputs(roundTrip(pair.kb1, "kb1"), roundTrip(pair.kb2, "kb2"), roundTrip(pair.groundTruth, "gt"))
  }
}

/** One timed unit: resolve, collect the matches, evaluate them. */
final case class UnitResult(resolveS: Double, collectS: Double, evaluateS: Double,
                            cachedMb: Double, counts: Map[String, LayerCounts],
                            matches: Seq[Match], prf: PRF, failures: Seq[String]) {
  def totalS: Double = resolveS + collectS + evaluateS
  lazy val digest: String = Checks.digest(matches)
}

/** End-to-end and per-layer benchmark of MinoanER.resolve.
  *
  * Usage: Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --record <file>
  *
  * Writes one JSON record to `--record`; its `result` field holds the
  * summary that `run.py` prints.
  */
object Bench {

  /** Task threads of `local[n]`. A unit on these inputs is bound by driver
    * work per stage, not by data; two threads leave cores to the JIT and GC
    * threads, which makes warm units both faster and steadier than four.
    */
  val Cores: Int = math.min(2, Runtime.getRuntime.availableProcessors())
  /** Set-ups per run, the one before the first unit included; setup_s is their median. */
  val SetupRepeats = 3
  /** Warm units per run at least, however short --seconds is. */
  val MinWarmUnits = 1
  val MB = 1e6

  // Listener layers of the untraced unit.
  val Resolve = "MinoanER.resolve"
  val Collect = "MinoanER.collect"
  val Evaluate = "Evaluation.evaluate"

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, record: String)

  private def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
         need("trace") match { case "0" => false; case "1" => true
                               case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t") },
         need("record"))
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Option[Double] = {
    val s = xs.sorted
    if (s.isEmpty) None
    else if (s.size % 2 == 1) Some(s(s.size / 2))
    else Some((s(s.size / 2 - 1) + s(s.size / 2)) / 2)
  }

  /** The pinned Spark environment; `environment` writes it into every record.
    *
    * Broadcast joins are off, as in the repository's tests. Adaptive
    * execution is off: with it one unit launches ~317 jobs, because AQE
    * submits each exchange as its own job and re-plans the query after each,
    * which takes 40–60 s per unit even on the smallest preset, more than the
    * benchmark's time budget allows. Job counts are therefore those of the
    * static plan. Whole-stage code generation is off as well: with it on
    * (4-vCPU VM, OpenJDK 17) a run took 60–93 s on restaurant and 77–82 s on
    * yago instead of 46–57 s and 58–68 s, and the warm yago unit took 15.0 s
    * instead of 12.4 s, so the benchmark's runs no longer fit its time
    * budget. The generated-code cache holds every class a unit compiles, so
    * warm units reuse the first unit's classes.
    */
  val SparkSettings: Seq[(String, String)] = Seq(
    "spark.sql.shuffle.partitions" -> Cores.toString,
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.sql.adaptive.enabled" -> "false",
    "spark.sql.codegen.wholeStage" -> "false",
    "spark.sql.codegen.cache.maxEntries" -> "10000")

  private def newSession(workDir: String): SparkSession =
    SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config(SparkSettings.toMap)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
      .getOrCreate()

  private def storageBytes(sc: SparkContext): Long =
    sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  private def environment(spark: SparkSession): ListMap[String, Any] = {
    val conf = spark.conf
    val rt = ManagementFactory.getRuntimeMXBean
    ListMap(
      "spark_version" -> spark.version,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "java_version" -> System.getProperty("java.version"),
      "java_vm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.vm.version")}",
      "jvm_args" -> rt.getInputArguments.asScala.toSeq,
      "heap_max_mb" -> Runtime.getRuntime.maxMemory / MB,
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).toSeq,
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "master" -> spark.sparkContext.master,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "spark_conf" -> ListMap(SparkSettings.map { case (k, _) => k -> conf.get(k) }: _*))
  }

  private def runUnit(spark: SparkSession, listener: LayerListener, in: Inputs,
                      gtSet: Set[(Long, Long)]): UnitResult = {
    in.recache(spark)
    listener.take()
    val base = storageBytes(spark.sparkContext)
    val t0 = System.nanoTime()
    val res = listener.within(Resolve)(MinoanER.resolve(spark, in.kb1, in.kb2))
    val t1 = System.nanoTime()
    val rows = listener.within(Collect)(res.matches.collect())
    val t2 = System.nanoTime()
    val prf = listener.within(Evaluate)(Evaluation.evaluateOnGtE1(res.matches, in.gt))
    val t3 = System.nanoTime()
    val counts = listener.take()
    val cachedMb = (storageBytes(spark.sparkContext) - base) / MB
    val ms = Checks.matches(rows)
    Console.err.println(f"perfbench: unit resolve ${(t1 - t0) / 1e9}%.2f s, collect ${(t2 - t1) / 1e9}%.2f s, " +
                        f"evaluate ${(t3 - t2) / 1e9}%.2f s")
    UnitResult((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, cachedMb, counts, ms, prf,
               Checks.failures(ms, prf, gtSet))
  }

  private def metric(value: Option[Double], unit: String): ListMap[String, Any] =
    ListMap("value" -> value, "unit" -> unit)
  private def metric(value: Double, unit: String): ListMap[String, Any] = metric(Some(value), unit)

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val wl = Workloads.byName(opts.workload)
    val cfg = wl.config(opts.seed)
    val workDir = Paths.get(".bench_build").toAbsolutePath.toString

    // Set-up: session start, generation, caching the inputs.
    val setupS = mutable.ArrayBuffer.empty[Double]
    val kbgenS = mutable.ArrayBuffer.empty[Double]
    def setUp(): (SparkSession, Inputs) = {
      val t0 = System.nanoTime()
      val spark = newSession(workDir)
      val tg = System.nanoTime()
      val pair = KBGen.generate(spark, cfg)
      kbgenS += secondsSince(tg)
      val in = Inputs.stored(spark, pair, s"$workDir/inputs")
      in.recache(spark)
      setupS += secondsSince(t0)
      Console.err.println(f"perfbench: set-up ${setupS.last}%.2f s (KBGen ${kbgenS.last}%.2f s)")
      (spark, in)
    }
    val (spark, in) = setUp()
    val gtSet = in.gt.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val listener = LayerListener.register(spark.sparkContext)

    // Units: the first one in this JVM, then warm ones for --seconds.
    val units = mutable.ArrayBuffer.empty[Either[String, UnitResult]]
    def attempt(): Unit =
      units += (try Right(runUnit(spark, listener, in, gtSet))
                catch { case NonFatal(e) => Left(e.toString) })
    attempt()
    val warmStart = System.nanoTime()
    while (units.size <= MinWarmUnits || secondsSince(warmStart) < opts.seconds) attempt()

    val ok = units.collect { case Right(u) => u }
    if (ok.isEmpty) throw new IllegalStateException(s"every unit failed: ${units.head.left.toOption.get}")
    val ref = ok.head
    def unitFailures(u: UnitResult): Seq[String] =
      u.failures ++ Option.when(u.digest != ref.digest)(s"match digest ${u.digest} differs from ${ref.digest}")
    val failedUnits = units.count {
      case Left(_)  => true
      case Right(u) => unitFailures(u).nonEmpty
    }
    val first = units.head.toOption
    val warm = units.drop(1).collect { case Right(u) => u }.toSeq
    val runS = warm.map(_.totalS)
    val env = environment(spark)

    // Traced run: the same dataflow layer by layer; it must give the same matches.
    val traced = Option.when(opts.trace) {
      in.recache(spark)
      val t = TracedResolve.run(listener, in.kb1, in.kb2, in.gt)
      val d = Checks.digest(t.matches)
      if (d != ref.digest)
        throw new IllegalStateException(
          s"traced composition gives match digest $d, MinoanER.resolve gives ${ref.digest}: " +
          "TracedResolve no longer mirrors MinoanER.resolve")
      t
    }
    val tracedFailures = traced.toSeq.flatMap(t => Checks.failures(t.matches, t.prf, gtSet))
    spark.stop()

    // The other set-ups, after the units, so the first unit follows a single set-up.
    for (_ <- 1 until SetupRepeats) setUp()._1.stop()
    val attempted = units.size + traced.size
    val failed = failedUnits + (if (tracedFailures.nonEmpty) 1 else 0)

    def warmMedian(f: UnitResult => Double): Option[Double] = median(warm.map(f))
    def phase(u: UnitResult, layers: String*): LayerCounts =
      layers.flatMap(u.counts.get).foldLeft(LayerCounts.Zero)(_ + _)

    val metrics: ListMap[String, ListMap[String, Any]] =
      if (!opts.trace) ListMap(
        "run_s" -> metric(median(runS), "s"),
        "first_run_s" -> metric(first.map(_.totalS), "s"),
        "setup_s" -> metric(median(setupS.toSeq), "s"),
        "f1" -> metric(ref.prf.f1, "ratio"),
        "precision" -> metric(ref.prf.precision, "ratio"),
        "recall" -> metric(ref.prf.recall, "ratio"),
        "cached_mb" -> metric(warmMedian(_.cachedMb), "MB"))
      else {
        val t = traced.get
        val layerMetrics = t.spans.flatMap { s =>
          val c = s.counts
          Seq(
            s"${s.name}.wall_s" -> metric(s.wallS, "s"),
            s"${s.name}.task_s" -> metric(c.taskS, "s"),
            s"${s.name}.overhead_s" -> metric(s.wallS - c.taskS / Cores, "s"),
            s"${s.name}.jobs" -> metric(c.jobs.toDouble, "count"),
            s"${s.name}.tasks" -> metric(c.tasks.toDouble, "count"),
            s"${s.name}.shuffle_mb" -> metric(c.shuffleWriteBytes / MB, "MB"),
            s"${s.name}.rows" -> metric(s.rows.toDouble, "count")) ++
          s.extras.toSeq.sortBy(_._1).map { case (k, v) =>
            s"${s.name}.$k" -> metric(v, if (k.endsWith("_frac")) "ratio" else "count")
          }
        }
        val untraced = Seq(
          "KBGen.wall_s" -> metric(median(kbgenS.toSeq), "s"),
          "MinoanER.resolve_s" -> metric(warmMedian(_.resolveS), "s"),
          "MinoanER.collect_s" -> metric(warmMedian(_.collectS), "s"),
          "MinoanER.jobs" -> metric(warmMedian(phase(_, Resolve, Collect).jobs.toDouble), "count"),
          "MinoanER.tasks" -> metric(warmMedian(phase(_, Resolve, Collect).tasks.toDouble), "count"),
          "MinoanER.shuffle_mb" -> metric(warmMedian(phase(_, Resolve, Collect).shuffleWriteBytes / MB), "MB"),
          "Evaluation.evaluate_s" -> metric(warmMedian(_.evaluateS), "s"),
          "Evaluation.evaluate_jobs" -> metric(warmMedian(phase(_, Evaluate).jobs.toDouble), "count"),
          "trace.total_s" -> metric(t.totalS, "s"),
          "trace.overhead_s" -> metric(median(runS).map(t.totalS - _), "s"))
        ListMap((layerMetrics ++ untraced): _*)
      }

    val result = ListMap(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics)

    def unitRecord(u: Either[String, UnitResult]): ListMap[String, Any] = u match {
      case Left(err) => ListMap("error" -> err)
      case Right(r) => ListMap(
        "resolve_s" -> r.resolveS, "collect_s" -> r.collectS, "evaluate_s" -> r.evaluateS,
        "total_s" -> r.totalS, "cached_mb" -> r.cachedMb,
        "listener" -> r.counts.map { case (k, c) => k -> countsRecord(c) },
        "digest" -> r.digest, "failures" -> unitFailures(r))
    }
    def countsRecord(c: LayerCounts): ListMap[String, Any] = ListMap(
      "jobs" -> c.jobs, "stages" -> c.stages, "tasks" -> c.tasks,
      "task_s" -> c.taskS, "shuffle_write_mb" -> c.shuffleWriteBytes / MB)

    val record = ListMap(
      "workload" -> wl.name,
      "preset" -> wl.preset.name,
      "scale" -> wl.scale,
      "seed" -> opts.seed,
      "preset_seed" -> wl.preset.seed,
      "kb_config" -> cfg.toString,
      "seconds" -> opts.seconds,
      "trace" -> opts.trace,
      "environment" -> env,
      "setup_s" -> setupS.toSeq,
      "kbgen_s" -> kbgenS.toSeq,
      // Too few warm units for any percentile with ten samples above it.
      "run_s" -> ListMap("median" -> median(runS), "n" -> runS.size, "samples" -> runS),
      "matches" -> ListMap(
        "digest" -> ref.digest,
        "count" -> ref.matches.size,
        "per_heuristic" -> ListMap(Checks.perHeuristic(ref.matches).toSeq.sorted: _*),
        "tp" -> ref.prf.tp, "predicted" -> ref.prf.predicted, "actual" -> ref.prf.actual),
      "units" -> units.map(unitRecord),
      "traced" -> traced.map(t => ListMap(
        "total_s" -> t.totalS,
        "failures" -> tracedFailures,
        "layers" -> t.spans.map(s => ListMap(
          "layer" -> s.name, "wall_s" -> s.wallS, "rows" -> s.rows,
          "listener" -> countsRecord(s.counts), "extras" -> s.extras)))),
      "result" -> result)

    new ObjectMapper().registerModule(DefaultScalaModule).writeValue(new File(opts.record), record)
  }
}
