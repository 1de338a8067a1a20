.PHONY: check test bench

check:
	./scripts/check.sh

test:
	go test ./...

bench:
	bash bench/run.sh
