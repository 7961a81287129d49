#!/usr/bin/env bash
# Replication smoke test for the serving stack:
#
#   1. boot a primary sac-serve with --wal-dir and --ship-addr, and a read
#      replica with --replicate-from pointed at it; commit on the primary
#      and assert the replica converges to the same epoch;
#      then check that /metrics ({"cmd":"metrics"}) and stats report the
#      same applied-record count and applied epoch;
#   2. send a mutation to the replica: it must answer with a typed redirect
#      carrying the primary's address, never apply locally;
#   3. kill -9 the primary — the replica must keep answering queries at its
#      last applied epoch and flip its stats to "degraded":true once the
#      staleness threshold passes;
#   4. restart the primary on the same WAL directory and shipping address,
#      commit again, and assert the replica catches up and sheds the
#      degraded flag on its own — no replica restart.
#
# Run from the repo root after `cargo build --release`.
set -euo pipefail

source "$(dirname "$0")/smoke_lib.sh"
smoke_init "replication smoke" 150
WAL_DIR="$WORK/wal"

# --- Boot the primary with a shipping endpoint (OS-assigned port). ---------
smoke_boot "$WORK/pin" "$WORK/pout" "$WORK/perr" \
  --preset syn1 --scale 0.05 --seed 7 --no-timing \
  --wal-dir "$WAL_DIR" --ship-addr 127.0.0.1:0
PRIMARY=$SMOKE_PID
exec 3>"$WORK/pin"
wait_grep "$WORK/perr" "shipping WAL to replicas on"
SHIP_ADDR=$(grep -o 'shipping WAL to replicas on [0-9.:]*' "$WORK/perr" | awk '{print $NF}')
echo "primary: shipping on $SHIP_ADDR"

# --- Boot the replica against it. ------------------------------------------
smoke_boot "$WORK/rin" "$WORK/rout" "$WORK/rerr" \
  --replicate-from "$SHIP_ADDR" --staleness-ms 500 --lease-ms 200 --no-timing
REPLICA=$SMOKE_PID
exec 4>"$WORK/rin"
wait_grep "$WORK/rerr" "replica bootstrapped from"

# --- Converge: commit on the primary, watch the replica apply it. ----------
printf '%s\n' \
  '{"cmd":"add_vertex","x":1.5,"y":2.5}' \
  '{"cmd":"add_edge","u":0,"v":1}' \
  '{"cmd":"commit"}' >&3
wait_lines "$WORK/pout" 3
EPOCH1=$(field "$WORK/pout" epoch)
[ "$EPOCH1" = "2" ] || { echo "expected epoch 2 after first commit, got $EPOCH1"; exit 1; }
wait_stats 4 "$WORK/rout" "\"last_applied_epoch\":$EPOCH1[,}]"
echo "replica: converged to epoch $EPOCH1"

# --- One value behind each name: /metrics agrees with stats. ---------------
printf '{"cmd":"metrics"}\n' >&4
wait_grep "$WORK/rout" '"metrics":"'
METRICS=$(grep '"metrics":"' "$WORK/rout" | tail -n 1)
wait_stats 4 "$WORK/rout" '"records_applied":'
STATS=$(tail -n 1 "$WORK/rout")
for pair in sac_replication_records_applied_total=records_applied \
            sac_replication_last_applied_epoch=last_applied_epoch; do
  series=${pair%%=*} key=${pair#*=}
  metric=$(grep -o "$series [0-9][0-9]*" <<<"$METRICS" | awk '{print $2}')
  stat=$(grep -o "\"$key\":[0-9]*" <<<"$STATS" | head -n1 | cut -d: -f2)
  [ -n "$metric" ] && [ "$metric" = "$stat" ] \
    || { echo "$series is '$metric' but stats $key is '$stat'"; exit 1; }
  echo "replica: $series = stats $key = $metric"
done

# --- Read-only contract: mutations on the replica redirect. ----------------
printf '{"cmd":"add_edge","u":2,"v":3}\n' >&4
wait_grep "$WORK/rout" '"redirect_to":"'"$SHIP_ADDR"'"'
echo "replica: mutation redirected to $SHIP_ADDR"

# --- Primary dies hard; the replica degrades but keeps serving. ------------
kill -9 "$PRIMARY"
wait "$PRIMARY" 2>/dev/null || true
PRIMARY=""
exec 3>&-
printf '{"q":0,"k":2}\n' >&4
wait_stats 4 "$WORK/rout" '"degraded":true'
grep -q '"ok":true' "$WORK/rout" || { echo "replica stopped answering"; cat "$WORK/rout"; exit 1; }
echo "replica: degraded after losing the primary, still answering queries"

# --- Primary returns on the same WAL dir + address; replica catches up. ----
smoke_boot "$WORK/pin2" "$WORK/pout2" "$WORK/perr2" \
  --wal-dir "$WAL_DIR" --ship-addr "$SHIP_ADDR" --no-timing
PRIMARY=$SMOKE_PID
exec 3>"$WORK/pin2"
wait_grep "$WORK/perr2" "recovered epoch"
printf '%s\n' '{"cmd":"add_vertex","x":9.5,"y":-3.5}' '{"cmd":"commit"}' >&3
wait_lines "$WORK/pout2" 2
EPOCH2=$(tail -n 1 "$WORK/pout2" | grep -o '"epoch":[0-9]*' | cut -d: -f2)
[ "$EPOCH2" -gt "$EPOCH1" ] || { echo "restart did not advance the epoch: $EPOCH2"; exit 1; }
wait_stats 4 "$WORK/rout" "\"last_applied_epoch\":$EPOCH2[,}]"
wait_stats 4 "$WORK/rout" '"degraded":false'
echo "replica: caught up to epoch $EPOCH2 after primary restart, health recovered"

# --- Orderly shutdown. ------------------------------------------------------
printf '{"cmd":"quit"}\n' >&3
printf '{"cmd":"quit"}\n' >&4
exec 3>&- 4>&-
wait "$PRIMARY" 2>/dev/null || true
wait "$REPLICA" 2>/dev/null || true
echo "replication smoke: OK"
