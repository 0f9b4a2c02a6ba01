package repro.core.encode

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ir.{Catalogs, Column, JoinEdge, Schema, Table}
import repro.core.ir.Ir._
import repro.gen.{QueryGen, Rewrites}
import scala.util.Random

class DbAgnosticSpec extends AnyFunSuite {

  private val agn = EncoderConfig.agnostic

  private def samePlan(a: EncodedPlan, b: EncodedPlan, ctx: String): Unit = {
    assert(a.numNodes == b.numNodes, ctx)
    assert(a.left.toSeq == b.left.toSeq && a.right.toSeq == b.right.toSeq, ctx)
    for (i <- a.nodes.indices; j <- a.nodes(i).indices)
      assert(math.abs(a.nodes(i)(j) - b.nodes(i)(j)) < 1e-12,
        s"$ctx node=$i dim=$j: ${a.nodes(i)(j)} vs ${b.nodes(i)(j)}")
  }

  test("agnostic config has the symbolic layout") {
    assert(agn.nT == 3 && agn.nC == 15)
    assert(agn.tables == IndexedSeq("t1", "t2", "t3"))
    assert(agn.columns.take(5) == IndexedSeq("t1.c1", "t1.c2", "t1.c3", "t1.c4", "t1.c5"))
  }

  test("symbols assigns tables and columns in alphanumeric order") {
    val p = Project(Seq(ColRef("a0", "l_quantity")),
      Filter(Pred(Col(ColRef("a0", "l_partkey")), Gt, Lit(1)),
        Scan("lineitem", "a0", Seq("l_orderkey", "l_partkey", "l_quantity"))))
    val sym = DbAgnostic.symbols(Seq(p))
    assert(sym.table("lineitem") == "t1")
    // Referenced columns sorted: l_partkey < l_quantity.
    assert(sym.col(ColRef("lineitem", "l_partkey")) == "t1.c1")
    assert(sym.col(ColRef("lineitem", "l_quantity")) == "t1.c2")
    assert(!sym.col.contains(ColRef("lineitem", "l_orderkey")), "unreferenced column excluded")
  }

  test("converter equals the direct db-agnostic path on 150 random pairs") {
    for (schema <- Seq(Catalogs.tpchLite, Catalogs.tpcdsLite); seed <- 0 until 75) {
      val inst = EncoderConfig.forSchema(schema)
      val rng = new Random(seed)
      val p = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val q = if (seed % 2 == 0) Rewrites.heavyVariant(p, rng)
              else QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val direct = DbAgnostic.encodeDirect(Seq(p, q), agn)
      val viaConverter = DbAgnostic.convert(
        Seq(NodeVector.encodeInstance(p, inst), NodeVector.encodeInstance(q, inst)),
        inst, agn)
      samePlan(direct(0), viaConverter(0), s"${schema.name} seed=$seed plan=0")
      samePlan(direct(1), viaConverter(1), s"${schema.name} seed=$seed plan=1")
    }
  }

  test("n-ary converter equals direct path on whole groups") {
    val schema = Catalogs.tpchLite
    val inst = EncoderConfig.forSchema(schema)
    val rng = new Random(5)
    val walk = QueryGen.tableWalk(schema, rng, 2)
    val group = Vector.fill(6)(
      QueryGen.assemble(QueryGen.specOver(schema, walk, 2, rng), rng))
    val direct = DbAgnostic.encodeDirect(group, agn)
    val conv = DbAgnostic.convert(group.map(NodeVector.encodeInstance(_, inst)), inst, agn)
    for (i <- group.indices) samePlan(direct(i), conv(i), s"group member $i")
  }

  test("db-agnostic encoding is invariant under consistent renaming (the transfer property)") {
    // Two schemas identical up to names: encodings of corresponding plans
    // must be bit-identical — the paper's Figure-4 argument.
    def renamed(prefix: String): Schema = Schema(prefix,
      Seq(Table(s"${prefix}_emp", Seq(Column("zz_key", 1, 100), Column("aa_val", 1, 100))),
          Table(s"${prefix}_dep", Seq(Column("kk_key", 1, 100), Column("mm_val", 1, 100)))),
      Seq(JoinEdge(s"${prefix}_emp", "zz_key", s"${prefix}_dep", "kk_key")))

    def build(s: Schema): Plan = {
      val e = Scan(s.tables(0).name, "x0", s.tables(0).columnNames)
      val d = Scan(s.tables(1).name, "x1", s.tables(1).columnNames)
      Project(Seq(ColRef("x0", s.tables(0).columns(1).name)),
        Filter(Pred(Col(ColRef("x1", s.tables(1).columns(1).name)), Gt, Lit(7)),
          Join(Inner, e, d, Pred(Col(ColRef("x0", s.tables(0).columns(0).name)), Eq,
            Col(ColRef("x1", s.tables(1).columns(0).name))))))
    }

    val s1 = renamed("alpha"); val s2 = renamed("beta")
    val e1 = DbAgnostic.encodeDirect(Seq(build(s1)), agn).head
    val e2 = DbAgnostic.encodeDirect(Seq(build(s2)), agn).head
    samePlan(e1, e2, "rename invariance")
  }

  test("pairwise encoding depends on the partner (pair-context property)") {
    // The same subexpression paired with partners referencing different
    // column sets gets different agnostic encodings (§4.2.1's motivation).
    val schema = Catalogs.tpchLite
    val li = schema.tableByName("lineitem").columnNames
    val p = Project(Seq(ColRef("a0", "l_quantity")),
      Filter(Pred(Col(ColRef("a0", "l_quantity")), Gt, Lit(1)),
        Scan("lineitem", "a0", li)))
    val partner1 = Project(Seq(ColRef("b0", "l_extendedprice")), Scan("lineitem", "b0", li))
    val partner2 = Project(Seq(ColRef("b0", "l_orderkey"), ColRef("b0", "l_partkey")),
      Scan("lineitem", "b0", li))
    val enc1 = DbAgnostic.encodeDirect(Seq(p, partner1), agn).head
    val enc2 = DbAgnostic.encodeDirect(Seq(p, partner2), agn).head
    // l_quantity's symbol rank differs depending on the partner's columns.
    val flat1 = enc1.nodes.flatten.toSeq
    val flat2 = enc2.nodes.flatten.toSeq
    assert(flat1 != flat2)
  }

  test("overflow beyond symbol capacity clamps instead of crashing") {
    val tight = EncoderConfig(IndexedSeq("t1"), IndexedSeq("t1.c1"))
    val rng = new Random(3)
    val plan = QueryGen.assemble(QueryGen.baseSpec(Catalogs.tpchLite, rng), rng)
    val enc = DbAgnostic.encodeDirect(Seq(plan), tight).head
    enc.nodes.foreach(_.foreach(x => assert(!x.isNaN)))
    val inst = EncoderConfig.forSchema(Catalogs.tpchLite)
    val conv = DbAgnostic.convert(Seq(NodeVector.encodeInstance(plan, inst)), inst, tight).head
    samePlan(enc, conv, "clamped")
  }

  test("referenced() maps aliases back to base tables") {
    val (tables, cols) = DbAgnostic.referenced(
      Project(Seq(ColRef("weird", "l_quantity")),
        Scan("lineitem", "weird", Seq("l_quantity"))))
    assert(tables == Set("lineitem"))
    assert(cols == Set(ColRef("lineitem", "l_quantity")))
  }
}
