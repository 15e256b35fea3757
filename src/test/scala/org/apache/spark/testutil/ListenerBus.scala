package org.apache.spark.testutil

import org.apache.spark.SparkContext

/** Waits until every event posted so far has reached every listener.
  *
  * Listener delivery is asynchronous, so a count read right after an action
  * could miss its events. The bus is private to Spark, hence this package.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
