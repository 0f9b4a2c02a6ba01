package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Every column draws from a fixed seed, so the
  * generators are deterministic in `sf` and the DuckDB oracle sees identical input.
  *
  * The TPC-H-lite keys are `INT`: `Sql.render` reads every column through
  * `CAST(… AS DOUBLE)`, and `CatalystBridge` strips that cast only where it
  * keeps every value, which a `BIGINT` column's does not.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(0) * nOrders + 1).cast(IntegerType) as "l_orderkey",
      (rand(1) * nPart   + 1).cast(IntegerType) as "l_partkey",
      (rand(2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (rand(3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(5) * 0.10, 2)                  as "l_discount",
      round(rand(6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      $"o_orderkey".cast(IntegerType)           as "o_orderkey",
      (rand(1) * nCust + 1).cast(IntegerType)   as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(2) * 3 + 1).cast("int")) as "o_orderstatus",
      round(rand(3) * 500000 + 1000, 2)         as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(4) * 2406).cast("int"))    as "o_orderdate",
    )
  }

  def customer(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NCustomerPerSf, sf) + 1).toDF("c_custkey").select(
      $"c_custkey".cast(IntegerType)            as "c_custkey",
      (rand(2) * 25).cast(IntegerType)          as "c_nationkey",
      round(rand(3) * 10000 - 1000, 2)          as "c_acctbal",
      element_at(array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
                       lit("HOUSEHOLD"), lit("FURNITURE")),
                 (rand(4) * 5 + 1).cast("int")) as "c_mktsegment",
    )
  }

  def part(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NPartPerSf, sf) + 1).toDF("p_partkey").select(
      $"p_partkey".cast(IntegerType)                      as "p_partkey",
      element_at(array(lit("STANDARD"), lit("SMALL"), lit("MEDIUM"),
                       lit("LARGE"), lit("ECONOMY"), lit("PROMO")),
                 (rand(5) * 6 + 1).cast("int"))           as "p_type",
      (rand(6) * 50 + 1).cast(IntegerType)                as "p_size",
      round(lit(900.0) + ($"p_partkey" % 1000) / 10.0, 2) as "p_retailprice",
    )
  }

  // -------------------------------------------------------------------------
  // TPC-DS-lite star schema (GEqO §7 evaluates on TPC-DS-shaped workloads).
  // Column domains match repro.core.ir.Catalogs.tpcdsLite so generated
  // predicates land inside the data. Deterministic in sf.
  // -------------------------------------------------------------------------

  private val NStoreSalesPerSf = 2_880_000L
  private val NWebSalesPerSf   =   720_000L
  private val NItem            =     2_000L // fixed-size dimensions: fact FKs
  private val NDateDim         =     1_000L // draw from these fixed domains
  private val NStore           =        50L

  def storeSales(spark: SparkSession, sf: Double): DataFrame = {
    spark.range(n(NStoreSalesPerSf, sf)).select(
      (rand(10) * 2000 + 1).cast(LongType)   as "ss_item_sk",
      (rand(11) * 50 + 1).cast(LongType)     as "ss_store_sk",
      (rand(12) * 1000 + 1).cast(LongType)   as "ss_sold_date_sk",
      (rand(13) * 100 + 1).cast(IntegerType) as "ss_quantity",
      round(rand(14) * 199 + 1, 2)           as "ss_sales_price",
      round(rand(15) * 400 - 100, 2)         as "ss_net_profit",
    )
  }

  def webSales(spark: SparkSession, sf: Double): DataFrame = {
    spark.range(n(NWebSalesPerSf, sf)).select(
      (rand(11) * 2000 + 1).cast(LongType)   as "ws_item_sk",
      (rand(12) * 1000 + 1).cast(LongType)   as "ws_sold_date_sk",
      (rand(13) * 100 + 1).cast(IntegerType) as "ws_quantity",
      round(rand(14) * 199 + 1, 2)           as "ws_sales_price",
    )
  }

  def item(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.range(1, NItem + 1).toDF("i_item_sk").select(
      $"i_item_sk",
      (rand(12) * 100 + 1).cast(IntegerType) as "i_brand_id",
      (rand(13) * 20 + 1).cast(IntegerType)  as "i_class_id",
      round(rand(14) * 99 + 1, 2)            as "i_current_price",
    )
  }

  def store(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.range(1, NStore + 1).toDF("s_store_sk").select(
      $"s_store_sk",
      (rand(13) * 250 + 50).cast(IntegerType)    as "s_number_employees",
      (rand(14) * 8000 + 1000).cast(IntegerType) as "s_floor_space",
    )
  }

  def dateDim(spark: SparkSession): DataFrame = {
    import spark.implicits._
    spark.range(1, NDateDim + 1).toDF("d_date_sk").select(
      $"d_date_sk",
      (rand(14) * 5 + 1998).cast(IntegerType) as "d_year",
      (rand(15) * 12 + 1).cast(IntegerType)   as "d_moy",
      (rand(16) * 28 + 1).cast(IntegerType)   as "d_dom",
    )
  }

  /** All tables of a schema by name — registry used by integration tests to
    * register temp views and feed the DuckDB oracle.
    */
  def tablesFor(spark: SparkSession, schemaName: String, sf: Double = 0.01): Map[String, DataFrame] =
    schemaName match {
      case "tpch" => Map(
        "lineitem" -> lineitem(spark, sf), "orders" -> orders(spark, sf),
        "customer" -> customer(spark, sf), "part" -> part(spark, sf))
      case "tpcds" => Map(
        "store_sales" -> storeSales(spark, sf), "web_sales" -> webSales(spark, sf),
        "item" -> item(spark), "store" -> store(spark), "date_dim" -> dateDim(spark))
      case other => throw new IllegalArgumentException(s"no data generator for schema $other")
    }
}
