package repro

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import repro.baseline.SigmaLite
import repro.core.{Evaluation, MinoanER, PRF}
import repro.kb.{Datasets, KBGen}
import repro.report.Tables

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

  /** The consumers of `resolve`'s evidence under the same settings: count and
    * SHA-256 of the sorted `e1\te2\n` lines of the B_N ∪ B_T candidate pairs
    * and of SigmaLite's matches, and the Table II row. Recorded when each
    * consumer still derived its own evidence from the KBs; reading
    * `resolve`'s must give the same.
    */
  private val goldenCandidates = Map(
    "Restaurant" -> (131, "5fe80484d16abae5009e908df778812334bc14ec86630bc9682050236fe65f81"),
    "Rexa-DBLP" -> (5098, "6c60865aece7d9d985a024aafad47a05e23a07b6206d3f9132c9c5d818ed7035"),
    "BBCmusic-DBpedia" -> (20220, "e2e7b6418127dd2d0a77d5ac78a9f40a90dbf4c964ea9f0af02aa90759844b3a"),
    "YAGO-IMDb" -> (146123, "e9c3f88a616e172b588f69cc324084d50d51afc197bb6e765ce7d0fdb2157d03"))

  private val goldenSigma = Map(
    "Restaurant" -> (11, "1d3b5318410c288df3a8e85394924c6047f120e378cf8fe408c761637e33b887"),
    "YAGO-IMDb" -> (240, "418072fcbd17381bc589c8910111d67cd48684607f24de69f2ff6c5e2c849a99"))

  private val goldenTable2 = Map(
    "Restaurant" -> Tables.Table2Row("Restaurant", 11, 124, 11, 199, 11844, PRF(11, 210, 11)),
    "YAGO-IMDb" -> Tables.Table2Row("YAGO-IMDb", 221, 2554, 250, 225489, 250000, PRF(375, 225739, 375)))

  private def digest(lines: Seq[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    for (line <- lines.sorted) md.update(line.getBytes(StandardCharsets.UTF_8))
    md.digest().map(b => f"$b%02x").mkString
  }

  private def pairsDigest(pairs: Seq[(Long, Long)]): (Int, String) =
    (pairs.size, digest(pairs.map { case (e1, e2) => s"$e1\t$e2\n" }))

  private def pinned[T](body: => T): T = withConf("spark.sql.shuffle.partitions" -> "64")(body)

  for (cfg <- Datasets.all) {
    lazy val pair = KBGen.generate(spark, Datasets.testScale(cfg))
    // Resolved once, with the matches computed and persisted under the pinned
    // partition count; every test below reads them from memory.
    lazy val (res, collected) = pinned {
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
      val lines = collected.map(r => s"${r.getLong(0)}\t${r.getLong(1)}\t${r.getString(2)}\n")
      assert((collected.size, digest(lines)) == golden(cfg.name))
    }

    test(s"${cfg.name} @ test scale: B_N ∪ B_T candidate pairs equal their golden digest") {
      val cands = MinoanER.candidatePairs(
        res.names1, res.names2, res.tokens1, res.tokens2, res.tokenBlocks)
      val pairs = pinned(cands.collect().toSeq).map(r => (r.getLong(0), r.getLong(1)))
      assert(pairsDigest(pairs) == goldenCandidates(cfg.name))
    }

    for (expected <- goldenSigma.get(cfg.name))
      test(s"${cfg.name} @ test scale: SigmaLite's matches equal their golden digest") {
        assert(pairsDigest(pinned(SigmaLite.resolve(res))) == expected)
      }

    for (expected <- goldenTable2.get(cfg.name))
      test(s"${cfg.name} @ test scale: the Table II row equals its golden values") {
        assert(pinned(Tables.table2Row(spark, Datasets.testScale(cfg))) == expected)
      }
  }
}
