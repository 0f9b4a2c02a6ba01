package repro.verifier

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ir.{Canon, Catalogs}
import repro.core.ir.Ir._
import repro.gen.{QueryGen, Rewrites}
import scala.util.Random

class VerifierSpec extends AnyFunSuite {

  private val av = new Verifier()

  // Figure 1's highlighted subexpressions, built verbatim.
  private val tblA = Seq("joinKey", "val", "x")
  private val tblB = Seq("joinKey", "val", "y")
  private def fig1Q1: Plan = {
    val a = Scan("A", "qa", tblA); val b = Scan("B", "qb", tblB)
    Project(Seq(ColRef("qa", "x"), ColRef("qb", "y")),
      Filter(Pred(Col(ColRef("qb", "val")), Gt, Lit(10)),
        Filter(Pred(Col(ColRef("qa", "val")), Gt, Add(Col(ColRef("qb", "val")), Lit(10))),
          Join(Inner, a, b,
            Pred(Col(ColRef("qa", "joinKey")), Eq, Col(ColRef("qb", "joinKey")))))))
  }
  private def fig1Q2: Plan = {
    val a = Scan("A", "ra", tblA); val b = Scan("B", "rb", tblB)
    Project(Seq(ColRef("ra", "x"), ColRef("rb", "y")),
      Filter(Pred(Col(ColRef("ra", "val")), Gt, Lit(20)),
        Filter(Pred(Add(Col(ColRef("rb", "val")), Lit(10)), Gt, Lit(20)),
          Filter(Pred(Add(Col(ColRef("rb", "val")), Lit(10)), Lt, Col(ColRef("ra", "val"))),
            Join(Inner, b, a,
              Pred(Col(ColRef("rb", "joinKey")), Eq, Col(ColRef("ra", "joinKey"))))))))
  }

  test("Figure 1: the two highlighted subexpressions are equivalent") {
    assert(av.equivalent(fig1Q1, fig1Q2))
  }

  test("Figure 1 with a perturbed constant is NOT equivalent") {
    val q2 = fig1Q2 match {
      case Project(cols, Filter(_, rest)) =>
        Project(cols, Filter(Pred(Col(ColRef("ra", "val")), Gt, Lit(25)), rest))
      case other => other
    }
    assert(!av.equivalent(fig1Q1, q2))
  }

  test("reflexivity") {
    assert(av.equivalent(fig1Q1, fig1Q1))
  }

  test("projection order matters") {
    val p1 = fig1Q1
    val p2 = fig1Q1 match {
      case Project(cols, c) => Project(cols.reverse, c)
      case other            => other
    }
    assert(!av.equivalent(p1, p2))
  }

  test("projection arity mismatch rejected") {
    val p2 = fig1Q1 match {
      case Project(cols, c) => Project(cols.take(1), c)
      case other            => other
    }
    assert(!av.equivalent(fig1Q1, p2))
  }

  test("different table sets rejected") {
    val a = Scan("A", "x0", tblA)
    val b = Scan("B", "x0", tblB)
    val pa = Project(Seq(ColRef("x0", "val")), a)
    val pb = Project(Seq(ColRef("x0", "val")), b)
    assert(!av.equivalent(pa, pb))
  }

  test("both-unsatisfiable queries of equal arity are equivalent") {
    val a1 = Scan("A", "u0", tblA)
    val a2 = Scan("A", "v0", tblA)
    def contradict(al: String, lo: Double, hi: Double, base: Plan) =
      Project(Seq(ColRef(al, "x")),
        Filter(Pred(Col(ColRef(al, "val")), Lt, Lit(lo)),
          Filter(Pred(Col(ColRef(al, "val")), Gt, Lit(hi)), base)))
    assert(av.equivalent(contradict("u0", 0, 5, a1), contradict("v0", -3, 9, a2)))
  }

  test("alias names are irrelevant") {
    val p1 = Project(Seq(ColRef("m", "val")),
      Filter(Pred(Col(ColRef("m", "val")), Gt, Lit(3)), Scan("A", "m", tblA)))
    val p2 = Project(Seq(ColRef("zz", "val")),
      Filter(Pred(Col(ColRef("zz", "val")), Gt, Lit(3)), Scan("A", "zz", tblA)))
    assert(av.equivalent(p1, p2))
  }

  test("self-join bijection: swapped self-join atoms are matched") {
    val s1 = Scan("A", "p", tblA); val s2 = Scan("A", "q", tblA)
    def q(left: Scan, right: Scan, hiAlias: String, loAlias: String) =
      Project(Seq(ColRef(hiAlias, "x")),
        Filter(Pred(Col(ColRef(hiAlias, "val")), Gt, Add(Col(ColRef(loAlias, "val")), Lit(0))),
          Join(Inner, left, right,
            Pred(Col(ColRef(left.alias, "joinKey")), Eq, Col(ColRef(right.alias, "joinKey"))))))
    val q1 = q(s1, s2, "p", "q")
    val s3 = Scan("A", "p", tblA); val s4 = Scan("A", "q", tblA)
    val q2 = q(s4, s3, "q", "p") // swapped roles, same semantics under bijection
    assert(av.equivalent(q1, q2))
  }

  test("smtIters shim never changes the verdict") {
    val slow = new Verifier(smtIters = 25)
    assert(slow.equivalent(fig1Q1, fig1Q2) == av.equivalent(fig1Q1, fig1Q2))
    assert(!slow.equivalent(fig1Q1, fig1Q1 match {
      case Project(cols, c) => Project(cols.reverse, c)
      case other            => other
    }))
    assert(slow.calls == 2)
  }

  test("calls counts every call made from concurrent threads") {
    val counted = new Verifier()
    val p = Project(Seq(ColRef("a", "x")), Scan("A", "a", tblA))
    val q = Project(Seq(ColRef("b", "x"), ColRef("b", "val")), Scan("A", "b", tblA))
    val threads = 4
    val perThread = 50000
    val workers = Seq.fill(threads)(new Thread(() => {
      var i = 0
      while (i < perThread) { counted.equivalent(p, q); i += 1 }
    }))
    workers.foreach(_.start())
    workers.foreach(_.join())
    assert(counted.calls == threads.toLong * perThread)
  }

  test("generated rewrites verify equivalent over both schemas (240 cases)") {
    for (schema <- Seq(Catalogs.tpchLite, Catalogs.tpcdsLite); seed <- 0 until 120) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val variant = Rewrites.variant(base, rng, heavy = seed % 2 == 0)
      assert(av.equivalent(base, variant),
        s"schema=${schema.name} seed=$seed\nbase=$base\nvariant=$variant")
    }
  }

  test("mutated constants break equivalence (they are detected)") {
    val rng = new Random(99)
    var checked = 0
    var seed = 0
    while (checked < 60 && seed < 400) {
      val r = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(Catalogs.tpchLite, r), r)
      val flat = Canon.flatten(base)
      // Find a bound conjunct and shift its constant: usually inequivalent
      // unless the shifted bound is implied by the others.
      val idx = flat.conjuncts.indexWhere(np => np.coefs.size == 1 && np.op != Canon.NEq)
      if (idx >= 0) {
        val np = flat.conjuncts(idx)
        val mutated = np.copy(const = np.const + 7)
        val preds = flat.conjuncts.updated(idx, mutated).map(Canon.renderPred(_, rng))
        val other = QueryGen.assemble(
          repro.gen.Spec(flat.atoms.toVector, preds, flat.proj.toVector), rng)
        val stillEq = DiffLogic.equivalent(flat.conjuncts,
          flat.conjuncts.updated(idx, mutated))
        assert(av.equivalent(base, other) == stillEq, s"seed=$seed")
        checked += 1
      }
      seed += 1
    }
    assert(checked >= 50, s"only $checked mutation cases exercised")
  }
}
