package repro.gen

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ir.{Canon, Catalogs}
import repro.core.ir.Ir._
import scala.util.Random

class QueryGenSpec extends AnyFunSuite {

  private val schemas = Seq(Catalogs.tpchLite, Catalogs.tpcdsLite, Catalogs.random(3))

  test("tableWalk returns connected non-empty walks within bounds") {
    for (schema <- schemas; seed <- 0 until 50) {
      val rng = new Random(seed)
      val walk = QueryGen.tableWalk(schema, rng, maxTables = 3)
      assert(walk.nonEmpty && walk.size <= 3)
      assert(walk.distinct == walk, "walks must not revisit tables")
      walk.foreach(t => assert(schema.tableByName.contains(t)))
    }
  }

  test("specOver produces atoms with unique aliases and valid references") {
    for (schema <- schemas; seed <- 0 until 50) {
      val rng = new Random(seed)
      val walk = QueryGen.tableWalk(schema, rng)
      val spec = QueryGen.specOver(schema, walk, arity = 2, rng)
      assert(spec.atoms.map(_.alias).distinct.size == spec.atoms.size)
      val avail = spec.cols.toSet
      spec.preds.foreach(p => assert(p.cols.subsetOf(avail), s"dangling column in $p"))
      spec.proj.foreach(c => assert(avail.contains(c)))
      assert(spec.proj.nonEmpty)
    }
  }

  test("join predicates connect every atom after the first (walk edges exist)") {
    val schema = Catalogs.tpchLite
    for (seed <- 0 until 50) {
      val rng = new Random(seed)
      val walk = QueryGen.tableWalk(schema, rng, maxTables = 3)
      val spec = QueryGen.specOver(schema, walk, 1, rng)
      val eqPreds = spec.preds.count {
        case Pred(Col(a), Eq, Col(b)) => a.table != b.table
        case _                        => false
      }
      assert(eqPreds >= walk.size - 1, s"seed=$seed: walk=$walk not fully linked")
    }
  }

  test("assemble preserves flattened semantics: conjunct multiset and projection") {
    for (schema <- schemas; seed <- 0 until 100) {
      val rng = new Random(seed)
      val spec = QueryGen.baseSpec(schema, rng)
      val plan = QueryGen.assemble(spec, rng)
      val flat = Canon.flatten(plan)
      assert(flat.proj == spec.proj)
      assert(flat.atoms.map(_.alias).sorted == spec.atoms.map(_.alias).sorted)
      val expected = spec.preds.map(Canon.normalize).sortBy(_.key)
      val actual   = flat.conjuncts.filterNot(_.coefs.isEmpty).sortBy(_.key)
      assert(actual == expected, s"seed=$seed")
    }
  }

  test("assemble emits stacked single-predicate filters (no conjunction nodes)") {
    for (seed <- 0 until 30) {
      val rng = new Random(seed)
      val plan = QueryGen.assemble(QueryGen.baseSpec(Catalogs.tpchLite, rng), rng)
      plan.subexpressions.foreach {
        case Filter(p, _) => assert(p.cols.size <= 2)
        case _            =>
      }
    }
  }

  test("assemble with different seeds yields different shapes for the same spec") {
    val rng0 = new Random(5)
    val spec = QueryGen.specOver(Catalogs.tpchLite,
      Vector("lineitem", "orders", "customer"), 2, rng0)
    val shapes = (0 until 12).map(s => QueryGen.assemble(spec, new Random(s)).toString).distinct
    assert(shapes.size > 1, "assembler must explore multiple tree shapes")
  }

  test("assemble is deterministic in the rng seed") {
    val spec = QueryGen.specOver(Catalogs.tpchLite, Vector("lineitem", "orders"), 2,
      new Random(1))
    assert(QueryGen.assemble(spec, new Random(9)) == QueryGen.assemble(spec, new Random(9)))
  }

  test("shuffleAtoms=false keeps the given atom order") {
    val spec = QueryGen.specOver(Catalogs.tpchLite,
      Vector("lineitem", "orders", "customer"), 1, new Random(2))
    val plan = QueryGen.assemble(spec, new Random(3), shuffleAtoms = false)
    assert(plan.atoms.map(_.alias) == spec.atoms.map(_.alias))
  }

  test("random schemas generate successfully at several seeds") {
    for (seed <- 0 until 10) {
      val schema = Catalogs.random(seed)
      assert(schema.tables.size == 5)
      val rng = new Random(seed)
      val plan = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      assert(plan.atoms.nonEmpty)
    }
  }
}
