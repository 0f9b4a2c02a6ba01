package repro.core.ir

import scala.util.Random

/** Workload schemas the generator draws from: table/column definitions plus
  * the join graph (key equi-join edges). Columns carry a value range used to
  * sample predicate constants that land inside the synthetic data's domain.
  */
final case class Column(name: String, lo: Double, hi: Double)

final case class Table(name: String, columns: Seq[Column]) {
  def columnNames: Seq[String] = columns.map(_.name)
}

/** Declared equi-join edge `t1.c1 = t2.c2`. */
final case class JoinEdge(t1: String, c1: String, t2: String, c2: String)

final case class Schema(name: String, tables: Seq[Table], joins: Seq[JoinEdge]) {
  val tableByName: Map[String, Table] = tables.map(t => t.name -> t).toMap

  /** Join edges incident to `t`, oriented so `_1` refers to `t`. */
  def edgesOf(t: String): Seq[(String, String, String)] =
    joins.collect {
      case JoinEdge(`t`, c1, t2, c2) => (c1, t2, c2)
      case JoinEdge(t1, c1, `t`, c2) if t1 != t => (c2, t1, c1)
    }

  def column(t: String, c: String): Column =
    tableByName(t).columns.find(_.name == c)
      .getOrElse(throw new NoSuchElementException(s"$t.$c not in schema $name"))
}

/** The schemas used across the evaluation. The *-lite schemas keep only the
  * numeric columns the generator predicates/projections range over; the
  * corresponding data generators live in [[repro.SynthData]].
  */
object Catalogs {

  val tpchLite: Schema = Schema(
    "tpch",
    Seq(
      Table("lineitem", Seq(
        Column("l_orderkey", 1, 15000), Column("l_partkey", 1, 2000),
        Column("l_quantity", 1, 50), Column("l_extendedprice", 900, 91000))),
      Table("orders", Seq(
        Column("o_orderkey", 1, 15000), Column("o_custkey", 1, 1500),
        Column("o_totalprice", 1000, 501000))),
      Table("customer", Seq(
        Column("c_custkey", 1, 1500), Column("c_nationkey", 0, 24),
        Column("c_acctbal", -1000, 9000))),
      Table("part", Seq(
        Column("p_partkey", 1, 2000), Column("p_size", 1, 50),
        Column("p_retailprice", 900, 1000))),
    ),
    Seq(
      JoinEdge("lineitem", "l_orderkey", "orders", "o_orderkey"),
      JoinEdge("lineitem", "l_partkey", "part", "p_partkey"),
      JoinEdge("orders", "o_custkey", "customer", "c_custkey"),
    ),
  )

  /** TPC-DS-lite: a star (+snowflake arm) over sales facts and dimensions. */
  val tpcdsLite: Schema = Schema(
    "tpcds",
    Seq(
      Table("store_sales", Seq(
        Column("ss_item_sk", 1, 2000), Column("ss_store_sk", 1, 50),
        Column("ss_sold_date_sk", 1, 1000), Column("ss_quantity", 1, 100),
        Column("ss_sales_price", 1, 200), Column("ss_net_profit", -100, 300))),
      Table("web_sales", Seq(
        Column("ws_item_sk", 1, 2000), Column("ws_sold_date_sk", 1, 1000),
        Column("ws_quantity", 1, 100), Column("ws_sales_price", 1, 200))),
      Table("item", Seq(
        Column("i_item_sk", 1, 2000), Column("i_brand_id", 1, 100),
        Column("i_class_id", 1, 20), Column("i_current_price", 1, 100))),
      Table("store", Seq(
        Column("s_store_sk", 1, 50), Column("s_number_employees", 50, 300),
        Column("s_floor_space", 1000, 9000))),
      Table("date_dim", Seq(
        Column("d_date_sk", 1, 1000), Column("d_year", 1998, 2002),
        Column("d_moy", 1, 12), Column("d_dom", 1, 28))),
    ),
    Seq(
      JoinEdge("store_sales", "ss_item_sk", "item", "i_item_sk"),
      JoinEdge("store_sales", "ss_store_sk", "store", "s_store_sk"),
      JoinEdge("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
      JoinEdge("web_sales", "ws_item_sk", "item", "i_item_sk"),
      JoinEdge("web_sales", "ws_sold_date_sk", "date_dim", "d_date_sk"),
    ),
  )

  /** Randomly-generated schema for the transfer-learning experiment (§7.1.3,
    * Table 4): five tables with 3–5 numeric columns each, chained and
    * cross-linked join edges. Deterministic in `seed`.
    */
  def random(seed: Long): Schema = {
    val nTables = 5
    val rng = new Random(seed)
    val tables = (0 until nTables).map { i =>
      val nCols = 3 + rng.nextInt(3)
      Table(f"rt${seed}%d_$i", (0 until nCols).map { j =>
        val lo = rng.nextInt(100)
        Column(s"rc${i}_$j", lo, lo + 50 + rng.nextInt(1000))
      })
    }
    // Chain edges keep the graph connected; extra random edges add variety.
    val chain = (1 until nTables).map { i =>
      val a = tables(i - 1); val b = tables(i)
      JoinEdge(a.name, a.columns(rng.nextInt(a.columns.size)).name,
               b.name, b.columns(rng.nextInt(b.columns.size)).name)
    }
    val extra = (0 until nTables / 2).flatMap { _ =>
      val i = rng.nextInt(nTables); val j = rng.nextInt(nTables)
      if (i == j) None
      else {
        val a = tables(i); val b = tables(j)
        Some(JoinEdge(a.name, a.columns(rng.nextInt(a.columns.size)).name,
                      b.name, b.columns(rng.nextInt(b.columns.size)).name))
      }
    }
    Schema(s"random$seed", tables, (chain ++ extra).distinct)
  }
}
