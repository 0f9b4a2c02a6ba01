package repro.core.geqo

import org.scalatest.funsuite.AnyFunSuite
import repro.core.emf.Emf
import repro.core.encode.{EncoderConfig, NodeVector}
import repro.core.ir.Catalogs
import repro.core.sf.SchemaFilter
import repro.core.vmf.Vmf
import repro.gen.Workloads
import repro.verifier.Verifier

class GEqOSpec extends AnyFunSuite {

  private val cfg = EncoderConfig.forSchema(Catalogs.tpchLite)

  private lazy val emf: Emf = {
    val m = new Emf(seed = 31, dropout = 0.2)
    val train = Workloads.labeledPairs(Catalogs.tpchLite, 600, seed = 31)
      .map(lp => (lp.a, lp.b, lp.label))
    m.fit(train, cfg, epochs = 12)
    m
  }
  private lazy val vmf = new Vmf(emf,
    Vmf.calibrate(emf,
      Workloads.labeledPairs(Catalogs.tpchLite, 150, seed = 32).map(lp => (lp.a, lp.b, lp.label)),
      cfg))
  private lazy val geqo = new GEqO(emf, vmf, new Verifier(), cfg, emfThreshold = 0.3)

  private lazy val es = Workloads.evalWorkload(Catalogs.tpchLite,
    nSubexprs = 100, nClasses = 10, seed = 33)

  test("GEqO has perfect precision (verification guarantees it)") {
    val r = geqo.equivalenceSet(es.subexprs)
    assert(r.equivalences.subsetOf(es.truth),
      s"false positives: ${r.equivalences -- es.truth}")
  }

  test("GEqO achieves high recall on a planted workload") {
    val r = geqo.equivalenceSet(es.subexprs)
    val recall = (r.equivalences & es.truth).size.toDouble / math.max(1, es.truth.size)
    assert(recall >= 0.7, s"recall $recall (found ${r.equivalences.size} of ${es.truth.size})")
  }

  test("filters strictly narrow the candidate space") {
    val r = geqo.equivalenceSet(es.subexprs)
    val s = r.stats
    assert(s.totalPairs >= s.afterSf)
    assert(s.afterSf >= s.afterVmf)
    assert(s.afterVmf >= s.afterEmf)
    assert(s.afterEmf >= s.verified)
    assert(s.afterSf < s.totalPairs, "SF must reject some pairs")
  }

  test("Stats equal the stage counts recomputed from the building blocks") {
    val subs = es.subexprs
    val enc = subs.map(NodeVector.encodeInstance(_, cfg))
    val groups = SchemaFilter.groups(subs)
    val vmfPairs = groups.flatMap { g =>
      vmf.candidatePairs(g.map(enc), cfg).map { case (a, b) => (g(a), g(b)) }
    }
    val emfPairs = vmfPairs.filter { case (i, j) =>
      emf.predictProbInstanceEncoded(enc(i), enc(j), cfg) >= 0.3
    }
    val check = new Verifier()
    val verified = emfPairs.count { case (i, j) => check.equivalent(subs(i), subs(j)) }

    val av = new Verifier()
    val s = new GEqO(emf, vmf, av, cfg, emfThreshold = 0.3).equivalenceSet(subs).stats
    val want = (es.numPairs, groups.map(g => g.size.toLong * (g.size - 1) / 2).sum,
                vmfPairs.size.toLong, emfPairs.size.toLong, verified.toLong)
    assert((s.totalPairs, s.afterSf, s.afterVmf, s.afterEmf, s.verified) == want)
    assert(av.calls == emfPairs.size)
  }

  test("disabling all filters equals brute-force verification (ground truth)") {
    val small = Workloads.evalWorkload(Catalogs.tpchLite, nSubexprs = 30, nClasses = 4, seed = 34)
    val r = geqo.equivalenceSet(small.subexprs, useSf = false, useVmf = false, useEmf = false)
    assert(r.equivalences == small.truth)
    assert(r.stats.afterEmf == small.numPairs)
  }

  test("SF-only configuration still has perfect precision and full recall") {
    val small = Workloads.evalWorkload(Catalogs.tpchLite, nSubexprs = 30, nClasses = 4, seed = 35)
    val r = geqo.equivalenceSet(small.subexprs, useSf = true, useVmf = false, useEmf = false)
    assert(r.equivalences == small.truth, "SF admits all true equivalences")
    assert(r.stats.afterEmf < small.numPairs)
  }

  test("ablation: each added filter reduces verifier invocations") {
    val av1 = new Verifier(); val av2 = new Verifier(); val av3 = new Verifier()
    val g1 = new GEqO(emf, vmf, av1, cfg, emfThreshold = 0.3)
    val g2 = new GEqO(emf, vmf, av2, cfg, emfThreshold = 0.3)
    val g3 = new GEqO(emf, vmf, av3, cfg, emfThreshold = 0.3)
    g1.equivalenceSet(es.subexprs, useSf = true, useVmf = false, useEmf = false)
    g2.equivalenceSet(es.subexprs, useSf = true, useVmf = true, useEmf = false)
    g3.equivalenceSet(es.subexprs, useSf = true, useVmf = true, useEmf = true)
    assert(av2.calls <= av1.calls, s"VMF should cut AV calls: ${av2.calls} vs ${av1.calls}")
    assert(av3.calls <= av2.calls, s"EMF should cut AV calls: ${av3.calls} vs ${av2.calls}")
  }

  test("pairwise GEqO_PAIR agrees with the verifier on planted positives") {
    var agreed = 0; var total = 0
    es.truth.take(8).foreach { case (i, j) =>
      total += 1
      if (geqo.equivalentPair(es.subexprs(i), es.subexprs(j))) agreed += 1
    }
    assert(agreed.toDouble / total >= 0.6, s"pairwise recall $agreed/$total")
  }

  test("pairwise GEqO_PAIR never returns false positives") {
    val subs = es.subexprs
    var checked = 0
    for (i <- 0 until 15; j <- (i + 1) until 15 if !es.truth.contains((i, j))) {
      assert(!geqo.equivalentPair(subs(i), subs(j)) ||
             new Verifier().equivalent(subs(i), subs(j)))
      checked += 1
    }
    assert(checked > 50)
  }

  test("GEqO_PAIR short-circuits: an SF reject makes no verifier call") {
    val subs = es.subexprs
    val j = subs.indexWhere(q => SchemaFilter.key(q) != SchemaFilter.key(subs(0)))
    assert(j > 0)
    val av = new Verifier()
    val g = new GEqO(emf, vmf, av, cfg, emfThreshold = 0.3)
    assert(!g.equivalentPair(subs(0), subs(j)))
    assert(av.calls == 0)
  }

  test("stage timings are recorded") {
    val r = geqo.equivalenceSet(es.subexprs)
    assert(r.stats.totalNanos > 0)
    assert(r.stats.sfNanos >= 0 && r.stats.vmfNanos > 0 && r.stats.emfNanos > 0)
  }
}
