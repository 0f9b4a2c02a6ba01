package repro.core.vmf

import org.scalatest.funsuite.AnyFunSuite
import repro.ann.Hnsw
import repro.core.emf.Emf
import repro.core.encode.{EncoderConfig, NodeVector}
import repro.core.ir.Catalogs
import repro.core.sf.SchemaFilter
import repro.gen.Workloads
import repro.verifier.Verifier

class VmfSpec extends AnyFunSuite {

  private val cfg = EncoderConfig.forSchema(Catalogs.tpchLite)

  // One trained EMF shared by the suite (embeddings need trained convolutions).
  private lazy val emf: Emf = {
    val m = new Emf(seed = 21, dropout = 0.2)
    val train = Workloads.labeledPairs(Catalogs.tpchLite, 500, seed = 21)
      .map(lp => (lp.a, lp.b, lp.label))
    m.fit(train, cfg, epochs = 10)
    m
  }

  private lazy val tau: Double = {
    val cal = Workloads.labeledPairs(Catalogs.tpchLite, 150, seed = 22)
      .map(lp => (lp.a, lp.b, lp.label))
    Vmf.calibrate(emf, cal, cfg)
  }

  test("calibrate returns a positive threshold") {
    assert(tau > 0.0)
  }

  test("VMF admits equivalent pairs with high recall") {
    val vmf = new Vmf(emf, tau)
    val pairs = Workloads.labeledPairs(Catalogs.tpchLite, 120, seed = 23)
      .filter(_.label)
    val admitted = pairs.count(lp => vmf.admits(lp.a, lp.b, cfg))
    assert(admitted.toDouble / pairs.size > 0.9,
      s"VMF recall ${admitted.toDouble / pairs.size} (tau=$tau)")
  }

  test("VMF rejects a meaningful share of non-equivalent SF-compatible pairs") {
    val vmf = new Vmf(emf, tau)
    val pairs = Workloads.labeledPairs(Catalogs.tpchLite, 300, seed = 24)
      .filterNot(_.label)
    val rejected = pairs.count(lp => !vmf.admits(lp.a, lp.b, cfg))
    assert(rejected.toDouble / pairs.size > 0.2,
      s"VMF TNR ${rejected.toDouble / pairs.size} (tau=$tau)")
  }

  test("candidatePairs is every in-radius pair of a 317-plan group, in order") {
    // The VMF-only ablation's input: Table 1's whole workload as one group.
    val vmf = new Vmf(emf, tau)
    val inst = EncoderConfig.forSchema(Catalogs.tpcdsLite)
    val es = Workloads.evalWorkload(Catalogs.tpcdsLite, nSubexprs = 317, nClasses = 50, seed = 7)
    val enc = es.subexprs.map(NodeVector.encodeInstance(_, inst))
    val embs = vmf.embedGroup(enc, inst)
    val inRadius = for {
      i <- embs.indices.toVector
      j <- (i + 1) until embs.size
      if Hnsw.dist(embs(i), embs(j)) <= tau
    } yield (i, j)
    assert(inRadius.size > 317)
    assert(vmf.candidatePairs(enc, inst) == inRadius)
  }

  test("parallel groups equal the per-group concatenation, in order") {
    val vmf = new Vmf(emf, tau)
    val es = Workloads.evalWorkload(Catalogs.tpchLite, nSubexprs = 90, nClasses = 10, seed = 25)
    val groups = SchemaFilter.groups(es.subexprs)
    val all = es.subexprs.map(NodeVector.encodeInstance(_, cfg))
    val perGroup = groups.flatMap { g =>
      vmf.candidatePairs(g.map(all), cfg).map { case (a, b) => (g(a), g(b)) }
    }
    assert(perGroup.nonEmpty)
    assert(vmf.candidates(groups, all, cfg) == perGroup)
  }

  test("candidatePairs finds the planted equivalences within groups") {
    val vmf = new Vmf(emf, tau)
    val es = Workloads.evalWorkload(Catalogs.tpchLite, nSubexprs = 80, nClasses = 8, seed = 26)
    val groups = SchemaFilter.groups(es.subexprs)
    val found = groups.flatMap { g =>
      val enc = g.map(i => NodeVector.encodeInstance(es.subexprs(i), cfg))
      vmf.candidatePairs(enc, cfg).map { case (a, b) =>
        val (i, j) = (g(a), g(b)); if (i < j) (i, j) else (j, i)
      }
    }.toSet
    val recall = (found & es.truth).size.toDouble / math.max(1, es.truth.size)
    assert(recall > 0.8, s"VMF group recall $recall")
  }

  test("VMF candidates are sound w.r.t. downstream verification (no crash path)") {
    val av = new Verifier()
    val vmf = new Vmf(emf, tau)
    val es = Workloads.evalWorkload(Catalogs.tpchLite, nSubexprs = 40, nClasses = 4, seed = 27)
    val groups = SchemaFilter.groups(es.subexprs)
    groups.foreach { g =>
      val enc = g.map(i => NodeVector.encodeInstance(es.subexprs(i), cfg))
      vmf.candidatePairs(enc, cfg).foreach { case (a, b) =>
        av.equivalent(es.subexprs(g(a)), es.subexprs(g(b))) // must not throw
      }
    }
  }
}
