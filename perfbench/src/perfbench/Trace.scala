package perfbench

import java.util.concurrent.ConcurrentHashMap

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One recorded interval. Times are epoch milliseconds from
  * `System.currentTimeMillis`, the clock Spark stamps job events with, so
  * driver-side spans and job spans line up. `pass` groups the spans of one
  * `BatchEngine.run` call (-1 outside passes).
  */
final case class Span(id: Int, name: String, parent: Int, pass: Int, start: Long, end: Long) {
  def ms: Long = end - start
}

/** A Spark job seen by [[JobListener]], tagged with the span that launched it. */
final case class JobRec(jobId: Int, span: Int, start: Long, end: Long)

/** Per-task figures of one stage. */
final case class TaskRec(runMs: Long, cpuNs: Long, shuffleBytes: Long)

/** Spans around the calls into each layer, kept in memory and written as
  * JSON at exit. Jobs are tagged with the innermost open span through a
  * Spark local property, which Spark copies onto every job the driver
  * thread submits.
  */
final class Tracer(sc: SparkContext) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def all: Seq[Span] = spans.toSeq

  /** Run `body` inside a span. */
  def span[T](name: String, pass: Int = -1)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    val start = System.currentTimeMillis()
    open = id :: open
    sc.setLocalProperty(Tracer.SpanKey, id.toString)
    val out = try body finally {
      open = open.tail
      sc.setLocalProperty(Tracer.SpanKey, open.headOption.map(_.toString).orNull)
    }
    spans += Span(id, name, parent, pass, start, System.currentTimeMillis())
    out
  }

  /** A span whose interval was measured elsewhere (a Spark job, or a
    * stretch of a pass between job boundaries).
    */
  def record(name: String, parent: Int, pass: Int, start: Long, end: Long): Unit = {
    spans += Span(nextId, name, parent, pass, start, end)
    nextId += 1
  }

  /** A span's duration minus the part its (sequential) children cover. */
  def selfMs: Map[Int, Long] = {
    val childMs = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.ms).sum }
    spans.iterator.map(s => s.id -> (s.ms - childMs.getOrElse(s.id, 0L))).toMap
  }

  def writeJson(path: java.nio.file.Path, header: String): Unit = {
    val self = selfMs
    val sb = new StringBuilder
    sb.append("{\"env\": ").append(header).append(",\n\"spans\": [\n")
    spans.sortBy(_.start).zipWithIndex.foreach { case (s, i) =>
      if (i > 0) sb.append(",\n")
      sb.append(s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "pass": ${s.pass}, """ +
                s""""start_ms": ${s.start}, "end_ms": ${s.end}, "self_ms": ${self(s.id)}}""")
    }
    sb.append("\n]}\n")
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.writeString(path, sb.toString)
  }
}

object Tracer {
  val SpanKey = "perfbench.span"
}

/** Records job boundaries and task metrics of every job launched inside a
  * [[Tracer]] span. Listener events arrive asynchronously; stopping the
  * SparkContext drains the bus, so results are read after `stop()`.
  */
final class JobListener extends SparkListener {
  private val jobSpan = new ConcurrentHashMap[Int, (Int, Long)]()
  private val jobEnd = new ConcurrentHashMap[Int, Long]()
  private val stageJob = new ConcurrentHashMap[Int, Int]()
  private val tasks = new ConcurrentHashMap[Int, java.util.concurrent.ConcurrentLinkedQueue[TaskRec]]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
    tag.foreach { t =>
      jobSpan.put(e.jobId, (t.toInt, e.time))
      e.stageIds.foreach(s => stageJob.putIfAbsent(s, e.jobId))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (jobSpan.containsKey(e.jobId)) jobEnd.put(e.jobId, e.time)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    if (e.taskMetrics != null && stageJob.containsKey(e.stageId)) {
      val job = stageJob.get(e.stageId)
      val m = e.taskMetrics
      tasks.computeIfAbsent(job, _ => new java.util.concurrent.ConcurrentLinkedQueue[TaskRec]())
        .add(TaskRec(m.executorRunTime, m.executorCpuTime, m.shuffleWriteMetrics.bytesWritten))
    }
  }

  /** Finished jobs grouped by the span that launched them, in start order. */
  def jobsBySpan: Map[Int, Seq[JobRec]] =
    jobSpan.asScala.toSeq.flatMap { case (job, (span, start)) =>
      Option(jobEnd.get(job)).map(end => JobRec(job, span, start, end))
    }.groupBy(_.span).map { case (s, js) => s -> js.sortBy(j => (j.start, j.jobId)) }

  def tasksOf(jobId: Int): Seq[TaskRec] =
    Option(tasks.get(jobId)).map(_.asScala.toSeq).getOrElse(Nil)
}
