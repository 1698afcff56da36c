package main

// shard.go implements `deepdb shard`: one shard replica process. It loads
// the same model file as the router, derives the identical deterministic
// partition, and serves its shard's members over the binary /eval
// interface (plus /apply for the router's mutation broadcast, /flush and
// /healthz). Replicas are a pure offload: the router holds the full model
// locally and falls back to local evaluation on any replica failure, so a
// replica can be killed, restarted or lag behind without affecting
// correctness — only the share of work answered remotely.
//
//	deepdb shard -model model.deepdb -shards 4 -index 2 -addr :9303
//
// must use the same -model and -shards as the router (`deepdb serve
// -shards 4 -shard-peers ...`); -index selects which partition this
// process owns. Pass -data to enable mutation application (the router
// forwards its broadcast to /apply), -wal for a durable per-replica log.

import (
	"context"
	"flag"
	"fmt"
	"net/http"

	"repro/deepdb"
	"repro/internal/ensemble"
	"repro/internal/shard"
	"repro/internal/wal"
)

func cmdShard(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	model := fs.String("model", "model.deepdb", "model file from deepdb learn (same file the router serves)")
	addr := fs.String("addr", ":9301", "listen address (give this URL to the router's -shard-peers)")
	nshards := fs.Int("shards", 1, "total partition count (must match the router's -shards)")
	index := fs.Int("index", 0, "which shard this process owns (0-based)")
	dataDir := fs.String("data", "", "optional data directory; required for /apply (mutation replication)")
	walDir := fs.String("wal", "", "write-ahead log directory for this replica's accepted mutations")
	durability := fs.String("durability", "batched", "WAL fsync policy: sync, batched or off (needs -wal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, ok := deepdb.ParseDurability(*durability)
	if !ok {
		return fmt.Errorf("unknown -durability %q (want sync, batched or off)", *durability)
	}
	ens, err := ensemble.LoadFile(*model, nil)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		data, err := deepdb.LoadCSVDir(ens.Schema, *dataDir)
		if err != nil {
			return err
		}
		if err := ens.AttachTables(data); err != nil {
			return err
		}
	}
	members := shard.Partition(ens, *nshards)
	if *index < 0 || *index >= len(members) {
		return fmt.Errorf("-index %d out of range: partitioning into %d shards produced %d (ensemble has %d members)",
			*index, *nshards, len(members), len(ens.RSPNs))
	}
	var wd wal.Durability
	switch d {
	case deepdb.DurabilitySync:
		wd = wal.Sync
	case deepdb.DurabilityOff:
		wd = wal.Off
	default:
		wd = wal.Batched
	}
	cfg := shard.Config{WALDir: *walDir, Durability: wd}
	sh, err := shard.New(*index, members[*index], ens, cfg)
	if err != nil {
		return err
	}
	defer sh.Close()
	srv := &http.Server{Addr: *addr, Handler: shard.NewServer(sh)}
	return serveUntilSignal(ctx, srv, fmt.Sprintf("deepdb: shard %d/%d (members %v) serving %s on %s",
		*index, len(members), members[*index], *model, *addr))
}
