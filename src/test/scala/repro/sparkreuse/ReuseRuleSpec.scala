package repro.sparkreuse

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.types.{DataType, DoubleType, IntegerType, StructField, StructType}
import repro.{SparkSpec, SynthData}
import repro.core.ir.{Catalogs, Sql}
import repro.gen.{QueryGen, Rewrites}
import repro.verifier.Verifier
import scala.util.Random

/** The computation-reuse story end-to-end: materialize one job's
  * subexpression, then run a *syntactically different but semantically
  * equivalent* second job and observe the optimizer rule substitute the
  * cached result — with identical query answers.
  */
class ReuseRuleSpec extends SparkSpec {

  private val schema = Catalogs.tpchLite
  private val av = new Verifier()

  private lazy val setup: (ReuseCache, ReuseRule) = {
    SynthData.tablesFor(spark, "tpch", 0.001)
      .foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val cache = new ReuseCache
    val rule = new ReuseRule(cache,
      ReuseRule.bodyResolver(spark, schema.tables.map(_.name)), av)
    ReuseRule.install(spark, rule)
    (cache, rule)
  }

  private def canonRows(df: org.apache.spark.sql.DataFrame): Seq[String] =
    df.collect().toSeq.map(r => (0 until r.size).map(i => "" + r.get(i)).mkString("|")).sorted

  test("rule installs idempotently") {
    val (_, rule) = setup
    ReuseRule.install(spark, rule)
    assert(spark.experimental.extraOptimizations.count(_ eq rule) == 1)
  }

  test("an equivalent rewritten job reuses the cached materialization") {
    val (cache, rule) = setup
    val rng = new Random(3)
    // Job 1: run and materialize.
    val q1 = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
    val df1 = spark.sql(Sql.render(q1))
    val expected = canonRows(df1)
    cache.materialize(q1, df1)
    assert(cache.size >= 1)

    // Job 2: a heavy semantic rewrite of job 1.
    val q2 = Rewrites.heavyVariant(q1, rng)
    assert(Sql.render(q2) != Sql.render(q1), "variant should differ syntactically")
    val hitsBefore = rule.hits
    val df2 = spark.sql(Sql.render(q2))
    val actual = canonRows(df2)

    assert(rule.hits > hitsBefore, "reuse rule did not fire")
    assert(df2.queryExecution.optimizedPlan.collectFirst { case l: LocalRelation => l }.isDefined,
      s"optimized plan has no cached relation:\n${df2.queryExecution.optimizedPlan}")
    assert(actual == expected, "reused result differs from original computation")
  }

  test("a non-equivalent job is left untouched") {
    val (cache, _) = setup
    val rng = new Random(5)
    val q1 = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
    val df1 = spark.sql(Sql.render(q1))
    cache.materialize(q1, df1)

    // A different query over the same tables: must NOT be substituted.
    var q3 = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
    while (av.equivalent(q1, q3))
      q3 = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
    val noRule = canonRows(spark.sql(Sql.render(q3))
      .queryExecution.sparkSession.sql(Sql.render(q3)))
    val withRule = canonRows(spark.sql(Sql.render(q3)))
    assert(withRule == noRule)
  }

  test("reused results match a from-scratch computation across several rewrites") {
    val (cache, rule) = setup
    val rng = new Random(11)
    var tested = 0
    var seed = 100
    while (tested < 5 && seed < 160) {
      val r = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, r), r)
      val df = spark.sql(Sql.render(base))
      cache.materialize(base, df)
      val expected = canonRows(df)
      val variant = Rewrites.variant(base, r, heavy = seed % 2 == 0)
      val got = canonRows(spark.sql(Sql.render(variant)))
      assert(got == expected, s"seed=$seed")
      tested += 1
      seed += 1
    }
    assert(tested == 5 && rule.hits >= 5)
  }

  /** Two small tables that hold NULLs. Each is cached, so that its scan
    * stays one leaf at optimizer time.
    */
  private lazy val nullTables: Seq[String] = {
    def table(name: String, cols: Seq[(String, DataType)], rows: Row*): String = {
      val schema = StructType(cols.map { case (c, t) => StructField(c, t, nullable = true) })
      spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema).cache()
        .createOrReplaceTempView(name)
      name
    }
    Seq(
      table("pt", Seq("nk" -> IntegerType, "ny" -> IntegerType, "nd" -> DoubleType),
        Row(1, null, 4.5), Row(2, 7, 3.0), Row(3, null, 5.0), Row(4, 8, null)),
      table("pu", Seq("uk" -> IntegerType, "uy" -> IntegerType),
        Row(1, null), Row(2, 7), Row(3, 9), Row(4, 8)))
  }

  /** Materializes `cached`, then runs `user` with a reuse rule over the NULL
    * tables installed; returns the user query's rows and whether the rule
    * substituted the cached result.
    */
  private def reuseOverNulls(cached: String, user: String): (Seq[String], Boolean) = {
    val cache = new ReuseCache
    val rule = new ReuseRule(cache, ReuseRule.bodyResolver(spark, nullTables), av)
    val df = spark.sql(cached)
    val views = new CatalystBridge.ViewNameResolver(nullTables.toSet)
    cache.materialize(CatalystBridge.toIr(df.queryExecution.analyzed, views).get.ir, df)
    ReuseRule.install(spark, rule)
    try (canonRows(spark.sql(user)), rule.hits > 0)
    finally spark.experimental.extraOptimizations =
      spark.experimental.extraOptimizations.filterNot(_ eq rule)
  }

  test("a null-safe join is not served from the cached plain equi-join") {
    val cached = "SELECT a.nk, b.uk FROM pt a, pu b WHERE a.ny = b.uy AND a.nk = b.uk"
    // The rule does fire over these tables: an equivalent rewrite is served.
    assert(reuseOverNulls(cached,
      "SELECT a.nk, b.uk FROM pt a, pu b WHERE a.nk = b.uk AND b.uy = a.ny") ==
      (Seq("2|2", "4|4"), true))
    // `<=>` also keeps the row whose two sides are both NULL.
    assert(reuseOverNulls(cached,
      "SELECT a.nk, b.uk FROM pt a, pu b WHERE a.ny <=> b.uy AND a.nk = b.uk") ==
      (Seq("1|1", "2|2", "4|4"), false))
  }

  test("a truncating cast is not served from the cached uncast comparison") {
    val cached = "SELECT a.nk FROM pt a WHERE a.nd <= 4"
    assert(reuseOverNulls(cached, "SELECT a.nk FROM pt a WHERE 4 >= a.nd") == (Seq("2"), true))
    // CAST(4.5 AS INT) is 4, so row 1 qualifies.
    assert(reuseOverNulls(cached, "SELECT a.nk FROM pt a WHERE CAST(a.nd AS INT) <= 4") ==
      (Seq("1", "2"), false))
  }

  test("cache.find applies SF pruning before verification") {
    val (cache, _) = setup
    val rng = new Random(21)
    val q = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
    val verifier = new Verifier()
    val before = verifier.calls
    // A candidate over disjoint tables: SF prunes, AV never invoked for it.
    val disjointTable = schema.tables.find(t => !q.atoms.map(_.table).contains(t.name))
    disjointTable.foreach { t =>
      import repro.core.ir.Ir._
      val cand = Project(Seq(ColRef("z0", t.columnNames.head)),
        Scan(t.name, "z0", t.columnNames))
      cache.find(cand, verifier)
      // Calls may be >0 for same-SF entries, but the disjoint candidate can
      // only be verified against SF-compatible entries.
      assert(verifier.calls - before <= cache.size)
    }
  }
}
