package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import scala.util.Random

import repro.SparkSpec
import repro.core.engine._
import repro.core.ivf.IVF
import repro.core.qdtree.Pred._
import repro.core.vec.{KMeans, Metric}
import repro.workload.{HybridQuery, Template, Workload}

/** Exact semantics of the global top-k merge, checked against brute force
  * over the collected table.
  *
  * The table holds `Copies` copies of every base vector, each copy in its
  * own Spark partition, so equal scores reach the merge from different
  * tasks. Vectors and queries sit on a 1/8 grid, so the batched kernel and
  * the scalar reference compute bit-identical scores.
  */
class MergeSpec extends SparkSpec {
  import MergeSpec.Tuple

  private val D = 4
  private val Base = 150
  private val Copies = 4
  private val K = 10
  private val attrCols = Seq("etype", "pop")

  private lazy val table: IndexedSeq[Tuple] = {
    val rnd = new Random(11)
    val types = Array("person", "song", "film")
    val base = IndexedSeq.fill(Base)(Array.fill(D)((rnd.nextInt(33) - 16) / 8.0f))
    val ids = rnd.shuffle((0L until Base.toLong * Copies).toIndexedSeq)
    for (c <- 0 until Copies; b <- 0 until Base) yield {
      val pop: java.lang.Double = if (rnd.nextDouble() < 0.8) rnd.nextInt(5) / 4.0 else null
      Tuple(ids(c * Base + b), base(b), types(rnd.nextInt(types.length)), pop)
    }
  }

  /** A flat IVF index laid out by hand: copy `c` of every vector lives in
    * Spark partition `c`, whatever its cell. Ids are shuffled, so neither
    * task order nor cell order follows id order.
    */
  private def spreadIndex(metric: Metric): PartitionedIndex = {
    val centroids = KMeans.train(table.map(_.vec).toArray, 4, IVF.AssignMetric, seed = 7, sampleCap = Int.MaxValue)
    val rows = table.map(t =>
      Row(t.id, t.vec.toSeq, t.etype, t.pop, 0, IVF.assign(t.vec, centroids)))
    val schema = StructType(Seq(
      StructField("id", LongType, nullable = false),
      StructField("vec", ArrayType(FloatType, containsNull = false), nullable = false),
      StructField("etype", StringType, nullable = false),
      StructField("pop", DoubleType, nullable = true),
      StructField(IndexBuilder.PartCol, IntegerType, nullable = false),
      StructField(IndexBuilder.ClusterCol, IntegerType, nullable = false)))
    // parallelize slices a sequence into contiguous runs: one copy per slice.
    val data = spark.createDataFrame(spark.sparkContext.parallelize(rows, Copies), schema).cache()
    data.count()
    new PartitionedIndex(data, attrCols, metric,
      Array(LeafMeta(0, table.size.toLong, centroids)), Routing.All, 0L)
  }

  private def workload(metric: Metric): Workload = {
    val templates = Seq(
      Template(0, "any", Seq.empty),
      Template(1, "person", Seq(StrEq("etype", "person"))),
      Template(2, "popular", Seq(NumCmp("pop", Ge, 0.5))),
      Template(3, "media", Seq(In("etype", Set("song", "film")), NotNull("pop"))))
    val rnd = new Random(5)
    val queries = for (t <- templates.indices; i <- 0 until 25) yield
      HybridQuery(t * 100L + i, t, Array.fill(D)((rnd.nextInt(33) - 16) / 8.0f))
    Workload(templates, queries.toIndexedSeq, K, metric)
  }

  private def matches(t: Template, x: Tuple): Boolean = t.preds.forall { p =>
    p.evalValue(p.attr match { case "etype" => x.etype; case "pop" => x.pop; case _ => null })
  }

  /** Every query's `(id, score)` list, ordered by (score, id): the template
    * filter first, or, with `expansion`, the unfiltered top `k × expansion`
    * first and the filter after. Queries left with nothing get no key.
    */
  private def bruteForce(w: Workload, metric: Metric,
                         expansion: Option[Int]): Map[Long, Array[(Long, Float)]] =
    w.queries.flatMap { q =>
      val t = w.templateById(q.templateId)
      val ranked = table.map(x => (x, metric.score(q.vec, x.vec))).sortBy { case (x, s) => (s, x.id) }
      val kept = expansion match {
        case None    => ranked.filter(r => matches(t, r._1))
        case Some(e) => ranked.take(w.k * e).filter(r => matches(t, r._1))
      }
      val top = kept.take(w.k).map { case (x, s) => (x.id, s) }.toArray
      if (top.isEmpty) None else Some(q.qid -> top)
    }.toMap

  private def assertSame(got: Map[Long, Array[(Long, Float)]], want: Map[Long, Array[(Long, Float)]]): Unit = {
    assert(got.keySet == want.keySet)
    for ((qid, rs) <- want)
      assert(got(qid).toSeq == rs.toSeq, s"qid $qid: got ${got(qid).toSeq} want ${rs.toSeq}")
  }

  /** Some answer is cut inside a run of equal scores, so the id tie-break
    * decides which copies it keeps.
    */
  private def cutsATie(w: Workload, metric: Metric): Boolean =
    w.queries.exists { q =>
      val t = w.templateById(q.templateId)
      val s = table.filter(matches(t, _)).map(x => metric.score(q.vec, x.vec)).sorted
      s.length > w.k && s(w.k - 1) == s(w.k)
    }

  for (metric <- Seq(Metric.IP, Metric.L2)) {
    test(s"exhaustive merge across tasks breaks score ties by ascending id ($metric)") {
      val index = spreadIndex(metric)
      try {
        assert(index.data.rdd.getNumPartitions == Copies)
        val w = workload(metric)
        assert(cutsATie(w, metric), "the fixture must put a tie at the k-th place")
        val run = BatchEngine.run(index, w, EngineOptions(k = K, exhaustive = true))
        assertSame(run.results, bruteForce(w, metric, None))
      } finally index.unpersist()
    }

    test(s"exhaustive PostFilter equals unfiltered top k×expansion, then filter, then first k ($metric)") {
      val index = spreadIndex(metric)
      try {
        val w = workload(metric)
        for (expansion <- Seq(1, 2, 4)) {
          val run = BatchEngine.run(index, w,
            EngineOptions(k = K, exhaustive = true, postFilter = true, postFilterExpansion = expansion))
          assertSame(run.results, bruteForce(w, metric, Some(expansion)))
        }
      } finally index.unpersist()
    }
  }
}

object MergeSpec {
  final case class Tuple(id: Long, vec: Array[Float], etype: String, pop: java.lang.Double)
}
