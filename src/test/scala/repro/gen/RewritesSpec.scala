package repro.gen

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.Signature
import repro.core.ir.{Canon, Catalogs}
import repro.verifier.Verifier
import repro.verifier.Entailment.{entails, mutual}
import scala.util.Random

class RewritesSpec extends AnyFunSuite {

  private val av = new Verifier()
  private val schema = Catalogs.tpchLite

  test("lightVariant preserves equivalence (100 cases)") {
    for (seed <- 0 until 100) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val v = Rewrites.lightVariant(base, rng)
      assert(av.equivalent(base, v), s"seed=$seed")
    }
  }

  test("heavyVariant preserves equivalence (100 cases)") {
    for (seed <- 0 until 100) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val v = Rewrites.heavyVariant(base, rng)
      assert(av.equivalent(base, v), s"seed=$seed")
    }
  }

  test("injectImplied adds only implied conjuncts") {
    for (seed <- 0 until 80) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val conj = Canon.flatten(base).conjuncts
      Rewrites.injectImplied(conj, rng).foreach { augmented =>
        assert(augmented.size == conj.size + 1)
        assert(entails(conj, augmented.last), s"seed=$seed: injected not implied")
        assert(mutual(conj, augmented), s"seed=$seed")
      }
    }
  }

  test("removeRedundant removes only redundant conjuncts") {
    for (seed <- 0 until 80) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val conj = Canon.flatten(base).conjuncts
      // Inject first so something is removable, then remove.
      val augmented = Rewrites.injectImplied(conj, rng).getOrElse(conj)
      Rewrites.removeRedundant(augmented, rng).foreach { reduced =>
        assert(reduced.size == augmented.size - 1)
        assert(mutual(augmented, reduced), s"seed=$seed")
      }
    }
  }

  test("heavy variants usually change the syntactic signature") {
    var changed = 0
    val n = 60
    for (seed <- 0 until n) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val v = Rewrites.heavyVariant(base, rng)
      if (Signature.of(base) != Signature.of(v)) changed += 1
    }
    assert(changed >= n / 2, s"only $changed/$n heavy variants changed signature")
  }

  test("variants of variants remain equivalent (rewrite closure)") {
    for (seed <- 0 until 40) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val v1 = Rewrites.heavyVariant(base, rng)
      val v2 = Rewrites.lightVariant(v1, rng)
      val v3 = Rewrites.heavyVariant(v2, rng)
      assert(av.equivalent(base, v3), s"seed=$seed")
    }
  }

  test("rewrites also hold on the TPC-DS and random schemas") {
    for (schema <- Seq(Catalogs.tpcdsLite, Catalogs.random(17)); seed <- 0 until 40) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      assert(av.equivalent(base, Rewrites.heavyVariant(base, rng)),
        s"${schema.name} seed=$seed")
    }
  }
}
