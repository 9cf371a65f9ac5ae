package repro.core.engine

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.roaringbitmap.RoaringBitmap

import repro.core.ivf.IVF
import repro.core.qdtree.{Pred, RoutedQuery}
import repro.core.vec.{KMeans, Metric, VectorOps}
import repro.workload.Workload

/** Options for workload-aware index construction (§4.1).
  *
  * @param minSize           qd-tree MIN_SIZE — stop splitting below this
  * @param m                 number of nearest global centroids per query used
  *                          as a routing constraint (0 disables, paper's best)
  * @param numGlobalCentroids |C| for the §4.1.1 centroid attribute (only used
  *                          when m > 0)
  */
final case class HQIOptions(minSize: Int = 1024,
                            m: Int = 0,
                            numGlobalCentroids: Int = 64)

/** A partitioner's output: `of(i)` is the partition (in `0 until count`) of
  * the i-th tuple in id order, and `routing` routes queries to partitions.
  */
final case class Parts(of: Array[Int], count: Int, routing: Routing)

/** How an index build splits the database into partitions. Every layout is
  * a routing structure plus one IVF per partition (§4.1.3), so the
  * strategies differ only here.
  */
sealed trait Partitioner {
  /** Columns read besides `id` and `vec`. */
  def columns: Seq[Column]
  /** Partitions the collected rows `(id, vec, columns…)`, in id order;
    * `vecs(i)` is row i's vector.
    */
  def partition(db: DataFrame, rows: Array[Row], vecs: Array[Array[Float]]): Parts
}

object Partitioner {
  /** One partition: a single IVF over the whole database (Strategies B/D). */
  case object All extends Partitioner {
    def columns: Seq[Column] = Nil
    def partition(db: DataFrame, rows: Array[Row], vecs: Array[Array[Float]]): Parts =
      Parts(new Array[Int](rows.length), 1, Routing.All)
  }

  /** Strategy C: `parts` equi-depth ranges of the numeric `attr`; NULLs go
    * to the first range.
    */
  final case class Range(attr: String, parts: Int) extends Partitioner {
    def columns: Seq[Column] = Seq(col(attr))
    def partition(db: DataFrame, rows: Array[Row], vecs: Array[Array[Float]]): Parts = {
      val cuts = db.stat.approxQuantile(attr, (1 until parts).map(_.toDouble / parts).toArray, 0.001)
      def bucket(v: Double): Int = {
        var b = 0
        while (b < parts - 1 && v >= cuts(b)) b += 1
        b
      }
      val of = rows.map(r => if (r.isNullAt(2)) 0 else bucket(r.getDouble(2)))
      Parts(of, parts, Routing.ByRange(attr, (Double.NegativeInfinity +: cuts) :+ Double.PositiveInfinity))
    }
  }

  /** HQI (§4): a balanced qd-tree over the history's predicates, plus
    * centroid predicates when `opts.m > 0`; one partition per leaf.
    */
  final case class QDTree(history: Workload, opts: HQIOptions) extends Partitioner {
    require(history.queries.nonEmpty, "a qd-tree needs a non-empty history")

    /** Cut predicates from the workload, deduplicated by display form. */
    private val attrPreds: Array[Pred] = {
      val seen = scala.collection.mutable.LinkedHashMap.empty[String, Pred]
      for (t <- history.templates; p <- t.preds) seen.getOrElseUpdate(p.describe, p)
      seen.values.toArray
    }

    def columns: Seq[Column] = attrPreds.map(_.toColumn).toSeq

    def partition(db: DataFrame, rows: Array[Row], vecs: Array[Array[Float]]): Parts = {
      val n = rows.length
      // §4.1.1: global centroid attribute t.c (only when centroid routing is on).
      val globalCentroids =
        if (opts.m > 0) KMeans.train(vecs, opts.numGlobalCentroids, IVF.AssignMetric, seed = IndexBuilder.KMeansSeed)
        else Array.empty[Array[Float]]
      val centroidPreds: Array[Pred] = globalCentroids.indices.map(i => Pred.CentroidEq(i): Pred).toArray
      val preds: Array[Pred] = attrPreds ++ centroidPreds

      // Support bitmaps: attribute predicates as evaluated by Catalyst in
      // the collect, centroid predicates from the driver-side assignment.
      val support = Array.fill(preds.length)(new RoaringBitmap())
      for (i <- 0 until n) {
        var j = 0
        while (j < attrPreds.length) {
          if (!rows(i).isNullAt(j + 2) && rows(i).getBoolean(j + 2)) support(j).add(i)
          j += 1
        }
        if (centroidPreds.nonEmpty) support(attrPreds.length + IVF.assign(vecs(i), globalCentroids)).add(i)
      }

      val predIdx: Map[String, Int] = preds.iterator.map(_.describe).zipWithIndex.toMap

      // Deduplicate the workload into weighted routed shapes.
      val shapes: Seq[RoutedQuery] = {
        val templatePreds: Map[Int, Seq[Seq[Int]]] =
          history.templates.map(t => t.id -> t.preds.map(p => Seq(predIdx(p.describe)))).toMap
        if (opts.m <= 0) {
          history.queries.groupBy(_.templateId).map { case (tid, qs) =>
            RoutedQuery(templatePreds(tid), qs.size.toLong)
          }.toSeq
        } else {
          history.queries
            .map { q =>
              val qc = VectorOps.nearestN(q.vec, globalCentroids, opts.m, IVF.AssignMetric).toSeq.sorted
              (q.templateId, qc)
            }
            .groupBy(identity)
            .map { case ((tid, qc), qs) =>
              val centroidClause = qc.map(c => predIdx(Pred.CentroidEq(c).describe))
              RoutedQuery(templatePreds(tid) :+ centroidClause, qs.size.toLong)
            }.toSeq
        }
      }

      val tree = repro.core.qdtree.QDTree.build(n, preds, support, shapes, opts.minSize)
      Parts(tree.leafOfTuple, tree.numLeaves, Routing.ByQDTree(tree, opts.m, globalCentroids))
    }
  }
}

/** Builds a [[PartitionedIndex]] in one pipeline for every strategy.
  *
  * The driver collects `(id, vec, partitioner columns)` once, in id order
  * (bounded at reproduction scale); the partitioner assigns each tuple a
  * partition; each partition trains its IVF driver-side; the final
  * `__part` / `__cluster` layout columns are attached distributed and the
  * DataFrame is repartitioned by them — the index layout *is* the
  * DataFrame partition layout.
  */
object IndexBuilder {

  /** Columns every index layout appends to the input schema. */
  val PartCol = "__part"
  val ClusterCol = "__cluster"

  /** Seed of the global k-means; partition p's IVF uses `KMeansSeed + p`. */
  private[engine] val KMeansSeed = 7L

  private def now(): Long = System.nanoTime() / 1000000

  /** Attaches each row's partition and cell, found by binary search of its
    * id in the build's sorted `ids`, and repartitions by them.
    */
  private def layout(db: DataFrame, ids: Array[Long], part: Array[Int], cell: Array[Int]): DataFrame = {
    def lookup(of: Array[Int]) = udf((id: Long) => of(java.util.Arrays.binarySearch(ids, id)))
    db.withColumn(PartCol, lookup(part)(col("id")))
      .withColumn(ClusterCol, lookup(cell)(col("id")))
      .repartition(db.sparkSession.sparkContext.defaultParallelism, col(PartCol), col(ClusterCol))
  }

  /** Collect, partition, train one IVF (√|Pᵢ| cells) per partition, lay out.
    *
    * @throws IllegalArgumentException naming the id of a vector whose
    *         length differs from the first vector's, or that contains NaN
    */
  def build(db: DataFrame, attrCols: Seq[String], metric: Metric, partitioner: Partitioner): PartitionedIndex = {
    val t0 = now()
    val rows = db.select(col("id") +: col("vec") +: partitioner.columns: _*).orderBy("id").collect()
    val ids = rows.map(_.getLong(0))
    val vecs = rows.map(_.getSeq[Float](1).toArray)
    val dim = if (vecs.isEmpty) 1 else vecs(0).length
    for (i <- vecs.indices) {
      require(vecs(i).length == dim, s"id ${ids(i)}: vector dimension ${vecs(i).length}, first vector's $dim")
      require(!vecs(i).exists(_.isNaN), s"id ${ids(i)}: vector contains NaN")
    }
    val parts = partitioner.partition(db, rows, vecs)

    val members = Array.fill(parts.count)(Array.newBuilder[Int])
    for (i <- ids.indices) members(parts.of(i)) += i
    val cell = new Array[Int](ids.length)
    val leaves = Array.tabulate(parts.count) { p =>
      val idxs = members(p).result()
      val cents =
        if (idxs.isEmpty) Array(new Array[Float](dim))
        else IVF.train(idxs.map(vecs), KMeansSeed + p)
      idxs.foreach(i => cell(i) = IVF.assign(vecs(i), cents))
      LeafMeta(p, idxs.length.toLong, cents)
    }

    val data = layout(db, ids, parts.of, cell).cache()
    data.count()
    new PartitionedIndex(data, attrCols, metric, leaves, parts.routing, now() - t0)
  }

  /** HQI (§4). With no history (e.g. the LP workload) the index is one flat
    * IVF, as the paper notes in §6.2.
    */
  def buildHQI(db: DataFrame, attrCols: Seq[String], metric: Metric,
               history: Workload, opts: HQIOptions = HQIOptions()): PartitionedIndex =
    build(db, attrCols, metric,
          if (history.queries.isEmpty) Partitioner.All else Partitioner.QDTree(history, opts))
}
