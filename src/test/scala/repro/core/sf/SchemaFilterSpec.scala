package repro.core.sf

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ir.Catalogs
import repro.core.ir.Ir._
import repro.gen.{QueryGen, Rewrites, Workloads}
import scala.util.Random

class SchemaFilterSpec extends AnyFunSuite {

  private val schema = Catalogs.tpchLite
  private val liCols = schema.tableByName("lineitem").columnNames

  test("key is (sorted table multiset, output arity)") {
    val p = Project(Seq(ColRef("a0", "l_quantity"), ColRef("a0", "l_partkey")),
      Scan("lineitem", "a0", liCols))
    assert(SchemaFilter.key(p) == (Seq("lineitem"), 2))
  }

  test("admits is reflexive and respects arity") {
    val p1 = Project(Seq(ColRef("a0", "l_quantity")), Scan("lineitem", "a0", liCols))
    val p2 = Project(Seq(ColRef("b0", "l_partkey")), Scan("lineitem", "b0", liCols))
    val p3 = Project(Seq(ColRef("b0", "l_partkey"), ColRef("b0", "l_quantity")),
      Scan("lineitem", "b0", liCols))
    assert(SchemaFilter.admits(p1, p1))
    assert(SchemaFilter.admits(p1, p2), "same table + arity must be admitted")
    assert(!SchemaFilter.admits(p1, p3), "different arity must be rejected")
  }

  test("SF never rejects a true equivalence (perfect recall by construction)") {
    for (seed <- 0 until 60) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val v = Rewrites.variant(base, rng, heavy = seed % 2 == 0)
      assert(SchemaFilter.admits(base, v), s"seed=$seed")
    }
  }

  test("groups partition the workload") {
    val es = Workloads.evalWorkload(schema, nSubexprs = 50, nClasses = 5, seed = 1)
    val groups = SchemaFilter.groups(es.subexprs)
    assert(groups.flatten.sorted == es.subexprs.indices.toVector)
    groups.foreach { g =>
      val keys = g.map(i => SchemaFilter.key(es.subexprs(i))).distinct
      assert(keys.size == 1)
    }
  }

  test("group pairs are exactly the intra-group pairs, i < j") {
    val es = Workloads.evalWorkload(schema, nSubexprs = 30, nClasses = 3, seed = 2)
    val pairs = SchemaFilter.groups(es.subexprs).flatMap(SchemaFilter.pairs)
    assert(pairs.distinct == pairs)
    pairs.foreach { case (i, j) =>
      assert(i < j)
      assert(SchemaFilter.admits(es.subexprs(i), es.subexprs(j)))
    }
    val brute = for {
      i <- es.subexprs.indices
      j <- (i + 1) until es.subexprs.size
      if SchemaFilter.admits(es.subexprs(i), es.subexprs(j))
    } yield (i, j)
    assert(pairs.sorted == brute.toVector.sorted)
  }

  test("ground-truth equivalences always sit inside one SF-group") {
    val es = Workloads.evalWorkload(schema, nSubexprs = 40, nClasses = 6, seed = 3)
    es.truth.foreach { case (i, j) =>
      assert(SchemaFilter.admits(es.subexprs(i), es.subexprs(j)))
    }
  }
}
