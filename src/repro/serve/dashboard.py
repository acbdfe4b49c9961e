"""The ``/dashboard`` page: live job metrics and the conflict matrix.

One self-contained HTML document (no external assets, stdlib-served by
:mod:`repro.serve.http`) that drives the service's existing endpoints
from vanilla JavaScript:

* ``/jobs`` polled for the job table;
* ``/jobs/<id>/events`` subscribed as Server-Sent Events for the
  selected job's live event feed (state changes, sweep progress);
* ``/jobs/<id>`` fetched on completion to render the run's per-lock
  contention profile -- totals, the critical-path lock table and the
  who-aborts-whom conflict matrix from ``metrics.profile``
  (:mod:`repro.obs.profile`);
* ``/metrics`` polled for the service-level OpenMetrics families.

The page renders whatever profile object it finds first in the job's
result payload (an object carrying both ``conflicts`` and ``totals``),
without kind-specific plumbing.  A run job's payload carries one; a
sweep's carries one only where its reducer keeps a cell's full metrics
export.  A verify job's never does: :func:`repro.verify.verify_run`
attaches only :class:`~repro.obs.MachineMetrics`, not the lock
profiler, so the page reports that the job has no profile.
"""

from __future__ import annotations

DASHBOARD_CONTENT_TYPE = "text/html; charset=utf-8"

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro serve dashboard</title>
<style>
  body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5em;
         color: #1b1b1b; background: #fafafa; }
  h1 { font-size: 1.25em; } h2 { font-size: 1.05em; margin-top: 1.4em; }
  table { border-collapse: collapse; margin: .5em 0; }
  th, td { border: 1px solid #ccc; padding: .25em .6em; text-align: right; }
  th { background: #efefef; }
  td.name, th.name { text-align: left; }
  tr.job { cursor: pointer; }
  tr.job.selected { outline: 2px solid #4a7; }
  td.heat { color: #fff; min-width: 2.2em; }
  #events { max-height: 14em; overflow-y: auto; background: #111;
            color: #9e9; padding: .6em; font: 12px/1.45 monospace;
            white-space: pre-wrap; }
  #svc { font: 12px monospace; white-space: pre-wrap; background: #eee;
         padding: .6em; max-height: 10em; overflow-y: auto; }
  .state-done { color: #2a7; } .state-failed { color: #c33; }
  .state-running { color: #b80; }
  .muted { color: #888; }
</style>
</head>
<body>
<h1>repro serve dashboard</h1>
<p class="muted">jobs refresh every 2s; select a job to stream its
events and, once done, its per-lock contention profile.</p>

<h2>jobs</h2>
<table id="jobs"><thead><tr>
  <th class="name">id</th><th>kind</th><th>state</th><th>progress</th>
  <th>coalesced</th></tr></thead><tbody></tbody></table>

<h2>events <span id="evtarget" class="muted"></span></h2>
<div id="events">(select a job)</div>

<h2>contention profile</h2>
<div id="profile"><span class="muted">(finishes with the selected
job, when its result carries metrics.profile)</span></div>

<h2>service metrics</h2>
<div id="svc">(loading)</div>

<script>
"use strict";
let selected = null, source = null;

function esc(s) { const d = document.createElement("span");
  d.textContent = String(s); return d.innerHTML; }

async function refreshJobs() {
  const res = await fetch("/jobs");
  const data = await res.json();
  const body = document.querySelector("#jobs tbody");
  body.innerHTML = "";
  for (const job of data.jobs) {
    const tr = document.createElement("tr");
    tr.className = "job" + (job.id === selected ? " selected" : "");
    const prog = job.progress && job.progress.total
      ? job.progress.done + "/" + job.progress.total : "";
    tr.innerHTML = "<td class=name>" + esc(job.id) + "</td><td>"
      + esc(job.kind) + "</td><td class=state-" + esc(job.state) + ">"
      + esc(job.state) + "</td><td>" + esc(prog) + "</td><td>"
      + esc(job.coalesced) + "</td>";
    tr.onclick = () => select(job.id);
    body.appendChild(tr);
    if (selected === null) select(job.id);
  }
}

function select(id) {
  if (id === selected) return;
  selected = id;
  document.getElementById("evtarget").textContent = "(" + id + ")";
  document.getElementById("events").textContent = "";
  if (source) source.close();
  source = new EventSource("/jobs/" + id + "/events");
  const log = document.getElementById("events");
  source.onmessage = (e) => append(log, e.data);
  for (const kind of ["state", "progress", "done", "failed"]) {
    source.addEventListener(kind, (e) => {
      append(log, kind + " " + e.data);
      if (kind === "done" || kind === "failed") loadProfile(id);
    });
  }
  loadProfile(id);
  refreshJobs();
}

function append(log, text) {
  log.textContent += text + "\\n";
  log.scrollTop = log.scrollHeight;
}

function findProfile(node) {
  if (node === null || typeof node !== "object") return null;
  if (node.conflicts !== undefined && node.totals !== undefined)
    return node;
  for (const key of Object.keys(node)) {
    const hit = findProfile(node[key]);
    if (hit) return hit;
  }
  return null;
}

async function loadProfile(id) {
  const res = await fetch("/jobs/" + id);
  if (!res.ok) return;
  const job = await res.json();
  const profile = findProfile(job.result || null);
  const target = document.getElementById("profile");
  if (!profile) {
    target.innerHTML = "<span class=muted>(no profile in this job's "
      + "result yet)</span>";
    return;
  }
  const t = profile.totals || {};
  let html = "<p>" + esc(t.attempts || 0) + " attempts, "
    + esc(t.commits || 0) + " commits (rate "
    + esc((t.commit_rate || 0).toFixed ? t.commit_rate.toFixed(3)
          : t.commit_rate) + "), " + esc(t.aborts || 0)
    + " aborts costing " + esc(t.cycles_lost || 0) + " cycles, "
    + esc(t.deferral_cycles || 0) + " deferral wait cycles</p>";
  html += "<table><thead><tr><th class=name>lock</th><th>attempts</th>"
    + "<th>commits</th><th>aborts</th><th>cycles lost</th>"
    + "<th>defer wait</th></tr></thead><tbody>";
  const locks = Object.entries(profile.locks || {}).sort((a, b) =>
    (b[1].cycles_contended || 0) - (a[1].cycles_contended || 0));
  for (const [lock, s] of locks) {
    html += "<tr><td class=name>" + esc(lock) + "</td><td>"
      + esc(s.attempts) + "</td><td>" + esc(s.commits) + "</td><td>"
      + esc(s.aborts) + "</td><td>" + esc(s.cycles_lost) + "</td><td>"
      + esc(s.deferral_cycles) + "</td></tr>";
  }
  html += "</tbody></table>";
  html += renderMatrix(profile.conflicts || {});
  target.innerHTML = html;
}

function renderMatrix(conflicts) {
  const victims = Object.keys(conflicts).sort((a, b) => a - b);
  if (!victims.length)
    return "<p class=muted>(no aborts: empty conflict matrix)</p>";
  const aborters = [...new Set(victims.flatMap(
    (v) => Object.keys(conflicts[v])))].sort((a, b) => a - b);
  let max = 1;
  for (const v of victims)
    for (const a of aborters)
      max = Math.max(max, conflicts[v][a] || 0);
  let html = "<h3>who aborts whom</h3><table><thead><tr>"
    + "<th class=name>victim \\\\ aborter</th>";
  for (const a of aborters)
    html += "<th>" + (a === "-1" ? "?" : "cpu " + esc(a)) + "</th>";
  html += "</tr></thead><tbody>";
  for (const v of victims) {
    html += "<tr><td class=name>cpu " + esc(v) + "</td>";
    for (const a of aborters) {
      const n = conflicts[v][a] || 0;
      const alpha = n ? 0.25 + 0.75 * (n / max) : 0;
      html += "<td class=heat style=\\"background: rgba(180,40,40,"
        + alpha.toFixed(2) + ")" + (n ? "" : "; color:#888")
        + "\\">" + n + "</td>";
    }
    html += "</tr>";
  }
  return html + "</tbody></table>";
}

async function refreshServiceMetrics() {
  const res = await fetch("/metrics");
  document.getElementById("svc").textContent = await res.text();
}

refreshJobs(); refreshServiceMetrics();
setInterval(refreshJobs, 2000);
setInterval(refreshServiceMetrics, 5000);
</script>
</body>
</html>
"""
