module enhancedbhpo/bench

go 1.22

require enhancedbhpo v0.0.0

replace enhancedbhpo => ../
