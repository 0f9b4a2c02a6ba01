package repro.sparkreuse

import repro.{SparkSpec, SynthData}
import repro.core.ir.{Catalogs, Sql}
import repro.gen.{QueryGen, Rewrites}
import repro.verifier.Verifier
import scala.util.Random

class CatalystBridgeSpec extends SparkSpec {

  private val schema = Catalogs.tpchLite
  private val av = new Verifier()

  private lazy val registered: Unit =
    SynthData.tablesFor(spark, "tpch", 0.001)
      .foreach { case (n, df) => df.createOrReplaceTempView(n) }

  private val viewResolver =
    new CatalystBridge.ViewNameResolver(schema.tables.map(_.name).toSet)

  test("analyzed plans of rendered SQL bridge back to verifier-equivalent IR (40 cases)") {
    registered
    var ok = 0
    for (seed <- 0 until 40) {
      val rng = new Random(seed)
      val plan = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val analyzed = spark.sql(Sql.render(plan)).queryExecution.analyzed
      val bridged = CatalystBridge.toIr(analyzed, viewResolver)
      assert(bridged.isDefined, s"seed=$seed failed to bridge:\n$analyzed")
      assert(av.equivalent(plan, bridged.get.ir),
        s"seed=$seed bridged IR not equivalent:\n${bridged.get.ir}\nvs\n$plan")
      ok += 1
    }
    assert(ok == 40)
  }

  test("bridged output attributes align positionally with the IR projection") {
    registered
    val rng = new Random(7)
    val plan = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
    val analyzed = spark.sql(Sql.render(plan)).queryExecution.analyzed
    val b = CatalystBridge.toIr(analyzed, viewResolver).get
    assert(b.outputAttrs.size == b.ir.output.size)
    assert(b.outputAttrs.map(_.name) == analyzed.output.map(_.name))
  }

  test("bridging a rewritten variant still verifies equivalent to the original IR") {
    registered
    for (seed <- 0 until 15) {
      val rng = new Random(seed)
      val base = QueryGen.assemble(QueryGen.baseSpec(schema, rng), rng)
      val variant = Rewrites.heavyVariant(base, rng)
      val analyzed = spark.sql(Sql.render(variant)).queryExecution.analyzed
      val bridged = CatalystBridge.toIr(analyzed, viewResolver)
      assert(bridged.isDefined, s"seed=$seed")
      assert(av.equivalent(base, bridged.get.ir), s"seed=$seed")
    }
  }

  test("non-SPJ plans are rejected gracefully") {
    registered
    val agg = spark.sql("SELECT COUNT(*) AS c FROM lineitem").queryExecution.analyzed
    assert(CatalystBridge.toIr(agg, viewResolver).isEmpty)
    val outer = spark.sql(
      """SELECT CAST(l.l_orderkey AS DOUBLE) AS c0 FROM lineitem l
        | LEFT JOIN orders o ON l.l_orderkey = o.o_orderkey""".stripMargin)
      .queryExecution.analyzed
    assert(CatalystBridge.toIr(outer, viewResolver).isEmpty)
  }

  test("casts are stripped only where they keep every value") {
    SynthData.tablesFor(spark, "tpcds", 0.001)
      .foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val resolver = new CatalystBridge.ViewNameResolver(Set("store_sales"))
    def bridges(col: String): Boolean =
      CatalystBridge.toIr(spark.sql(s"SELECT $col AS c0 FROM store_sales s")
        .queryExecution.analyzed, resolver).isDefined
    // ss_quantity is INT, ss_item_sk BIGINT and ss_sales_price DOUBLE.
    assert(bridges("CAST(s.ss_quantity AS DOUBLE)"))
    assert(bridges("CAST(s.ss_quantity AS BIGINT)"))
    assert(bridges("CAST(s.ss_sales_price AS DOUBLE)"))
    assert(!bridges("CAST(s.ss_item_sk AS DOUBLE)"))
    assert(!bridges("CAST(s.ss_item_sk AS INT)"))
    assert(!bridges("CAST(s.ss_sales_price AS INT)"))
  }

  test("BodyResolver recognizes inlined view bodies at optimizer time") {
    registered
    val resolver = ReuseRule.bodyResolver(spark, Seq("lineitem", "orders"))
    val opt = spark.table("lineitem").queryExecution.optimizedPlan
    assert(resolver.tableOf(opt).contains("lineitem"))
    val optOrders = spark.table("orders").queryExecution.optimizedPlan
    assert(resolver.tableOf(optOrders).contains("orders"))
    assert(resolver.tableOf(opt) != resolver.tableOf(optOrders))
  }
}
