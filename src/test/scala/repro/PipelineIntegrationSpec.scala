package repro

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import org.apache.spark.sql.Row
import repro.core.{Evaluation, MinoanER}
import repro.kb.{Datasets, KBGen}

/** End-to-end MinoanER over every dataset preset at unit-test scale.
  *
  * Bounds are looser than the bench ones: at 1/8 scale the name pools
  * shrink quadratically in combination space, so H1 contributes less and
  * more weight falls on H3 (especially for YAGO-IMDb, whose tiny name pool
  * collides heavily at this scale).
  */
class PipelineIntegrationSpec extends SparkSpec {

  private val floors = Map(
    "Restaurant" -> 0.85,
    "Rexa-DBLP" -> 0.70,
    "BBCmusic-DBpedia" -> 0.50,
    "YAGO-IMDb" -> 0.30)

  /** (match count, SHA-256 of the sorted `e1\te2\theuristic\n` lines) at test
    * scale under 64 shuffle partitions. A change that keeps the match set must
    * keep these; exact sim ties make the set depend on the partitioning
    * (DESIGN.md §5), hence the pinned partition count.
    */
  private val golden = Map(
    "Restaurant" -> (42, "d9b29eab5b67f800936edbd4f2819bdfde456ed817421091f1b9ab648319026d"),
    "Rexa-DBLP" -> (231, "4e333eeea182f7aa779e7024b23ec1b6685fafbf76b594db1e068ef51a37e8d0"),
    "BBCmusic-DBpedia" -> (250, "6cfcbdf053bd34ffc68dea2cace00a1f09383bb9400bb765a53dc9903e6460a5"),
    "YAGO-IMDb" -> (451, "30174e53a90681c2b90f77f82a0cbf79d008c841be5e0e52e96c10781492e41c"))

  private def digest(rows: Seq[Row]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    for (line <- rows.map(r => s"${r.getLong(0)}\t${r.getLong(1)}\t${r.getString(2)}\n").sorted)
      md.update(line.getBytes(StandardCharsets.UTF_8))
    md.digest().map(b => f"$b%02x").mkString
  }

  for (cfg <- Datasets.all) {
    lazy val pair = KBGen.generate(spark, Datasets.testScale(cfg))
    // Resolved once, with the matches computed and persisted under the pinned
    // partition count; every test below reads them from memory.
    lazy val (res, collected) = withConf("spark.sql.shuffle.partitions" -> "64") {
      val r = MinoanER.resolve(spark, pair.kb1, pair.kb2)
      (r, r.matches.collect().toSeq)
    }
    lazy val prf  = Evaluation.evaluateOnGtE1(res.matches, pair.groundTruth)

    test(s"${cfg.name} @ test scale: F1 above its floor") {
      assert(prf.f1 > floors(cfg.name), s"${cfg.name}: $prf")
    }

    test(s"${cfg.name} @ test scale: every ground-truth KB1 entity gets a candidate match") {
      // H3 matches every unmatched KB1 entity; only H4 may drop some, so
      // coverage of GT entities should be near-total.
      val covered = res.matches
        .join(pair.groundTruth.select("e1").distinct(), Seq("e1"), "left_semi")
        .select("e1").distinct().count()
      assert(covered.toDouble / pair.groundTruth.count() > 0.8, cfg.name)
    }

    test(s"${cfg.name} @ test scale: matches carry a valid heuristic tag") {
      val tags = res.matches.select("heuristic").distinct()
        .collect().map(_.getString(0)).toSet
      assert(tags.subsetOf(Set("H1", "H2", "H3")), tags)
    }

    test(s"${cfg.name} @ test scale: the match set equals its golden digest") {
      assert((collected.size, digest(collected)) == golden(cfg.name))
    }
  }
}
